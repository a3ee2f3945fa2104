import random
from fractions import Fraction

import pytest

from qdurrmeyer import (
    Backend,
    BackendMismatchError,
    DomainError,
    FunctionSpec,
    JacksonTruncationError,
    OperatorSpec,
    Polynomial,
    QContext,
    Scalar,
    bernstein_basis,
    classical_durrmeyer_apply,
    durrmeyer_apply_fn,
    durrmeyer_apply_poly,
    kernel_mass,
)
from qdurrmeyer import operators
from qdurrmeyer.asymptotics import QSequence, convergence_grid
from qdurrmeyer.cli import main

from conftest import Q_GRID, X_GRID_16


class TestOperatorSpec:
    def test_validation(self, ctx_half):
        with pytest.raises(DomainError):
            OperatorSpec(0, ctx_half)
        with pytest.raises(DomainError):
            OperatorSpec(2, ctx_half, Scalar.exact(3), Scalar.exact(1))
        with pytest.raises(DomainError):
            OperatorSpec(2, ctx_half, alpha=Scalar.exact(1))
        with pytest.raises(DomainError):
            OperatorSpec(2, ctx_half, beta=Scalar.exact(1))

    def test_stancu_accepts_boundary(self, ctx_half):
        OperatorSpec(2, ctx_half, Scalar.exact(0), Scalar.exact(0))
        OperatorSpec(2, ctx_half, Scalar.exact(2), Scalar.exact(2))


class TestBernsteinBasis:
    def test_endpoint_examples(self, ctx_half):
        spec = OperatorSpec(3, ctx_half)
        assert bernstein_basis(spec, 0, Scalar.exact(0)) == 1
        assert bernstein_basis(spec, 3, Scalar.exact(1)) == 1

    def test_interior_value(self, ctx_half):
        # [2;1]_q x (1-x) at x = 1/2: (3/2)(1/2)(1/2)
        spec = OperatorSpec(2, ctx_half)
        assert bernstein_basis(spec, 1, Scalar.exact(1, 2)) == Fraction(3, 8)

    def test_partition_of_unity(self):
        for q in Q_GRID:
            ctx = QContext.exact(q)
            for n in range(1, 21):
                spec = OperatorSpec(n, ctx)
                for xf in X_GRID_16:
                    x = Scalar.exact(xf)
                    total = ctx.zero
                    for k in range(n + 1):
                        total = total + bernstein_basis(spec, k, x)
                    assert total == 1, (n, q, xf)

    def test_equals_the_scalar_product(self):
        # [n choose k]_q x^k prod_{s<n-k} (1 - q^s x) in Scalar arithmetic;
        # float values must keep its bits
        for ctx, xs in (
            (QContext.exact(13, 16), [Scalar.exact(i, 7) for i in range(8)]),
            (QContext.floating(0.93), [Scalar.floating(i / 7) for i in range(8)]),
        ):
            for n in (1, 5, 17):
                spec = OperatorSpec(n, ctx)
                for k in range(n + 1):
                    for x in xs:
                        want = ctx.q_binom(n, k) * x ** k
                        for s in range(n - k):
                            want = want * (ctx.one - ctx.q_power(s) * x)
                        got = bernstein_basis(spec, k, x)
                        assert got.backend is want.backend and got.value == want.value

    def test_nonnegative_on_unit_interval(self, ctx_half):
        spec = OperatorSpec(6, ctx_half)
        for xf in X_GRID_16:
            for k in range(7):
                assert bernstein_basis(spec, k, Scalar.exact(xf)) >= 0

    def test_index_range(self, ctx_half):
        spec = OperatorSpec(3, ctx_half)
        with pytest.raises(DomainError):
            bernstein_basis(spec, 4, Scalar.exact(1, 2))
        with pytest.raises(DomainError):
            bernstein_basis(spec, -1, Scalar.exact(1, 2))

    def test_x_outside_unit_interval_rejected(self, ctx_half):
        spec = OperatorSpec(3, ctx_half)
        with pytest.raises(DomainError):
            bernstein_basis(spec, 1, Scalar.exact(11, 10))


class TestKernelMass:
    def test_examples(self, ctx_half):
        spec = OperatorSpec(2, ctx_half)
        assert kernel_mass(spec, 0) == Fraction(4, 7)
        assert kernel_mass(spec, 1) == Fraction(2, 7)
        assert kernel_mass(spec, 2) == Fraction(1, 7)

    def test_closed_value(self):
        for q in Q_GRID:
            ctx = QContext.exact(q)
            for n in range(1, 9):
                spec = OperatorSpec(n, ctx)
                for k in range(n + 1):
                    assert kernel_mass(spec, k) == ctx.q_power(k) / ctx.q_int(n + 1)

    def test_total_mass_is_one(self, ctx_half):
        # sum_k [n+1] q^-k mass_k p_nk(x) == 1, the operator normalization
        for n in (1, 4, 7):
            spec = OperatorSpec(n, ctx_half)
            x = Scalar.exact(5, 9)
            total = ctx_half.zero
            for k in range(n + 1):
                total = total + (
                    ctx_half.q_int(n + 1)
                    * ctx_half.q_power(-k)
                    * kernel_mass(spec, k)
                    * bernstein_basis(spec, k, x)
                )
            assert total == 1


class TestDurrmeyerPolynomial:
    def test_constant_preserved(self, ctx_half):
        spec = OperatorSpec(2, ctx_half)
        assert durrmeyer_apply_poly(spec, Polynomial.one(Backend.EXACT)) == Polynomial.one(
            Backend.EXACT
        )

    def test_first_moment_example(self, ctx_half):
        spec = OperatorSpec(2, ctx_half)
        image = durrmeyer_apply_poly(spec, Polynomial.monomial(1, Backend.EXACT))
        assert image == Polynomial.from_fractions([Fraction(8, 15), Fraction(2, 5)])
        assert image.eval(Scalar.exact(1, 2)) == Fraction(11, 15)

    def test_linearity(self, ctx_half):
        spec = OperatorSpec(3, ctx_half)
        p = Polynomial.from_fractions([1, -2, 3])
        g = Polynomial.from_fractions([0, 1, 0, 2])
        combo = p.scale(Scalar.exact(2, 3)) + g.scale(Scalar.exact(-5))
        expect = durrmeyer_apply_poly(spec, p).scale(Scalar.exact(2, 3)) + (
            durrmeyer_apply_poly(spec, g).scale(Scalar.exact(-5))
        )
        assert durrmeyer_apply_poly(spec, combo) == expect

    def test_degree_bound(self, ctx_half):
        for n in (1, 2, 5):
            spec = OperatorSpec(n, ctx_half)
            for m in range(7):
                image = durrmeyer_apply_poly(spec, Polynomial.monomial(m, Backend.EXACT))
                assert image.degree <= min(m, n)

    @staticmethod
    def _product_expansion(n, ctx, p):
        # sum_k w_k p_nk(x), each p_nk multiplied out from its linear factors
        out = Polynomial.zero(Backend.EXACT)
        for k in range(n + 1):
            inner = sum(
                (c * operators.q_beta(k + m + 1, n - k + 1, ctx) for m, c in enumerate(p.coeffs)),
                ctx.zero,
            )
            w = ctx.q_int(n + 1) * ctx.q_binom(n, k) * inner
            basis = Polynomial.monomial(k, Backend.EXACT).scale(ctx.q_binom(n, k))
            for s in range(n - k):
                basis = basis * Polynomial((ctx.one, -ctx.q_power(s)), Backend.EXACT)
            out = out + basis.scale(w)
        return out

    def test_matches_product_expansion(self):
        rng = random.Random(20151)
        for q in (Fraction(1, 2), Fraction(13, 16), Fraction(2, 7)):
            ctx = QContext.exact(q)
            for n in range(1, 11):
                spec = OperatorSpec(n, ctx)
                for _ in range(2):
                    deg = rng.randint(0, n + 2)
                    p = Polynomial.from_fractions(
                        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg + 1)]
                    )
                    assert durrmeyer_apply_poly(spec, p) == self._product_expansion(n, ctx, p)

    def test_cancellation_check_fires(self, ctx_half, monkeypatch):
        # perturb only the k = 0 weight of p = 1, so x^1 cannot cancel
        n = 5
        real = operators._kernel_weight

        def perturbed(k, *args):
            value = real(k, *args)
            return value * Fraction(1001, 1000) if k == 0 else value

        monkeypatch.setattr(operators, "_kernel_weight", perturbed)
        with pytest.raises(ArithmeticError):
            durrmeyer_apply_poly(OperatorSpec(n, ctx_half), Polynomial.one(Backend.EXACT))


@pytest.mark.parametrize("q", (Fraction(1, 2), Fraction(13, 16)))
class TestKernelIdentities:
    """The product identities behind the kernel sum, against q-factorial forms."""

    def test_beta_weight_is_a_ratio_of_q_integers(self, q):
        # [n+1]_q [n choose k]_q B_q(k+m+1, n-k+1) = prod_{i<=m} [k+i]_q / prod_{i<=m} [n+i+1]_q
        ctx = QContext.exact(q)
        for n in range(1, 41):
            for k in range(n + 1):
                ratio = ctx.one
                for m in range(7):
                    if m:
                        ratio = ratio * ctx.q_int(k + m) / ctx.q_int(n + m + 1)
                    weight = ctx.q_int(n + 1) * ctx.q_binom(n, k)
                    assert weight * operators.q_beta(k + m + 1, n - k + 1, ctx) == ratio, (n, k, m)

    def test_binomial_products_regroup(self, q):
        # [n choose k]_q [n-k choose i]_q = [n choose k+i]_q [k+i choose i]_q
        ctx = QContext.exact(q)
        b = ctx.q_binom
        for n in range(1, 41):
            for k in range(n + 1):
                for i in range(min(7, n - k) + 1):
                    assert b(n, k) * b(n - k, i) == b(n, k + i) * b(k + i, i), (n, k, i)


class TestDurrmeyerFunction:
    def test_constant_float_path(self):
        ctx = QContext.floating(0.5)
        spec = OperatorSpec(4, ctx)
        one = Polynomial([Scalar.floating(1.0)])
        got = durrmeyer_apply_fn(spec, one, Scalar.floating(0.37))
        assert abs(float(got) - 1.0) < 1e-12

    def test_polynomial_delegates_to_exact_path(self, ctx_half):
        spec = OperatorSpec(2, ctx_half)
        got = durrmeyer_apply_fn(spec, Polynomial.monomial(1, Backend.EXACT), Scalar.exact(1, 2))
        assert got == Fraction(11, 15)
        assert durrmeyer_apply_fn(spec, Polynomial.monomial(2, Backend.EXACT), Scalar.exact(1)) == (
            Fraction(28, 31)
        )

    def test_series_path_matches_exact_path(self):
        # black-box t^2 via a tabulated function against the q-Beta route
        ctx = QContext.floating(0.5)
        spec = OperatorSpec(3, ctx)
        x = Scalar.floating(0.4)
        exact = durrmeyer_apply_fn(spec, Polynomial.monomial(2, Backend.FLOAT), x)

        def sq(t):
            return t * t

        table = {ctx.q_power(j): sq(ctx.q_power(j)) for j in range(1200)}
        series = durrmeyer_apply_fn(spec, FunctionSpec.tabulated(table), x, tol=1e-14)
        assert abs(float(series) - float(exact)) < 1e-12

    def test_positivity(self):
        ctx = QContext.floating(0.5)
        spec = OperatorSpec(5, ctx)
        for name in ("exp", "abs-shift", "reciprocal-shift"):
            got = durrmeyer_apply_fn(spec, FunctionSpec.builtin(name), Scalar.floating(0.62))
            assert float(got) >= 0.0

    def test_endpoint_reduces_to_single_kernel(self):
        ctx = QContext.floating(0.5)
        n = 4
        spec = OperatorSpec(n, ctx)
        f = FunctionSpec.builtin("exp")
        got = durrmeyer_apply_fn(spec, f, Scalar.floating(0.0))

        def weighted(t):
            out = f.float_fn()(t)
            for s in range(n):
                out = out * (1.0 - ctx.q_power(s + 1).value * t)
            return out

        from qdurrmeyer.qcore import jackson_series

        expect = ctx.q_int(n + 1) * jackson_series(weighted, ctx)
        assert abs(float(got) - float(expect)) < 1e-12

    def test_truncation_error_carries_kernel_index(self):
        ctx = QContext.floating(0.999)
        spec = OperatorSpec(2, ctx)
        with pytest.raises(JacksonTruncationError) as err:
            durrmeyer_apply_fn(spec, FunctionSpec.builtin("exp"), Scalar.floating(0.5), max_terms=5)
        assert err.value.basis_index is not None


def boxed_jackson(fn, ctx, max_terms=4096):
    """The Jackson series with every operation on boxed Scalars, tol = 1e-12."""
    tol = Scalar.floating(1e-12)
    one_minus_q = ctx.one - ctx.q
    term = total = ctx.zero
    for j in range(max_terms):
        node = ctx.q_power(j)
        term = one_minus_q * node * fn(node)
        total = total + term
        if abs(term) < tol:
            return total
    raise JacksonTruncationError(
        f"Jackson series did not reach tol={tol} within {max_terms} terms "
        f"(last term magnitude {abs(term)})"
    )


def boxed_lhs(f, x, n, q, max_terms=4096):
    """[n]_q (D_{n,q}(f; x) - f(x)) by a kernel sum of its own for this x alone,
    on boxed Scalars; a truncated series gives the error text instead."""
    ctx = QContext(q)
    spec = OperatorSpec(n, ctx)
    total = ctx.zero
    for k in range(n + 1):
        base = bernstein_basis(spec, k, x)
        if base.is_zero:
            continue

        def integrand(t, _k=k):
            out = f.evaluate(t) * t ** _k
            for s in range(n - _k):
                out = out * (ctx.one - ctx.q_power(s + 1) * t)
            return out

        try:
            integral = boxed_jackson(integrand, ctx, max_terms)
        except JacksonTruncationError as exc:
            return f"{exc} (while integrating kernel index k={k})"
        total = total + ctx.q_int(n + 1) * base * ctx.q_binom(n, k) * integral
    return ctx.q_int(n) * (total - f.evaluate(x))


GRID_X = [Scalar.floating(v) for v in (0.177, 0.377, 0.577, 0.777)]


class TestSharedKernelIntegrals:
    @pytest.mark.parametrize("name", ["exp", "sin"])
    def test_grid_equals_boxed_sum_per_x(self, name):
        f = FunctionSpec.builtin(name)
        numeric = 0
        for seq in (QSequence.one_minus_inv_n(), QSequence.power_decay(2)):
            tables = convergence_grid(f, GRID_X, seq, [4, 8, 16])
            for x, table in zip(GRID_X, tables):
                for row in table:
                    want = boxed_lhs(f, x, row.n, row.q_n)
                    if isinstance(want, str):
                        assert row.lhs is None and row.error == want
                    else:
                        assert row.error is None and row.lhs == want
                        numeric += 1
        assert numeric >= 20

    def test_truncating_grid_keeps_error_text_and_index(self, capsys):
        f = FunctionSpec.builtin("exp")
        code = main(["voronovskaja", "--f", "exp", "--backend", "float", "--x-grid",
                     "0.177:0.777:4", "--n-list", "4,8", "--max-terms", "2"])
        lines = capsys.readouterr().out.splitlines()[1:]
        assert code == 3 and len(lines) == 8
        for line in lines:
            n, q, x, lhs = line.split(",")[:4]
            want = boxed_lhs(f, Scalar.floating(float(x)), int(n), Scalar.floating(float(q)), 2)
            assert lhs == ("error:" + want).replace(",", ";")
        # on one context the second x re-raises the memoized error
        spec = OperatorSpec(4, QContext.floating(0.75))
        for x in GRID_X:
            with pytest.raises(JacksonTruncationError) as err:
                durrmeyer_apply_fn(spec, f, x, max_terms=2)
            assert err.value.basis_index == 0

    def test_scalar_count_does_not_grow_with_the_nodes(self, monkeypatch):
        # the Jackson nodes stay raw floats, so a tol that takes about nine times the
        # nodes builds no more Scalars
        built = [0]
        init, wrap = Scalar.__init__, Scalar._wrap

        def counted_init(self, *args):
            built[0] += 1
            init(self, *args)

        def counted_wrap(self, value):
            built[0] += 1
            return wrap(self, value)

        monkeypatch.setattr(Scalar, "__init__", counted_init)
        monkeypatch.setattr(Scalar, "_wrap", counted_wrap)
        counts = []
        for tol in (None, 1e-100):
            built[0] = 0
            spec = OperatorSpec(8, QContext.floating(0.9))
            for x in (0.2, 0.5):
                durrmeyer_apply_fn(spec, FunctionSpec.builtin("exp"), Scalar.floating(x), tol=tol)
            counts.append(built[0])
        assert counts[0] == counts[1]


class TestStancu:
    def test_zero_parameters_collapse_to_plain(self, ctx_half):
        spec = OperatorSpec(3, ctx_half, Scalar.exact(0), Scalar.exact(0))
        plain = OperatorSpec(3, ctx_half)
        for m in range(5):
            p = Polynomial.monomial(m, Backend.EXACT)
            assert durrmeyer_apply_poly(spec, p) == durrmeyer_apply_poly(plain, p)

    def test_constant_preserved(self, ctx_half):
        spec = OperatorSpec(2, ctx_half, Scalar.exact(1), Scalar.exact(2))
        assert durrmeyer_apply_poly(
            spec, Polynomial.one(Backend.EXACT)
        ) == Polynomial.one(Backend.EXACT)

    def test_first_moment_at_origin(self, ctx_half):
        spec = OperatorSpec(2, ctx_half, Scalar.exact(1), Scalar.exact(2))
        assert durrmeyer_apply_poly(
            spec, Polynomial.monomial(1, Backend.EXACT)
        ).eval(Scalar.exact(0)) == Fraction(18, 35)

    def test_function_path_matches_polynomial_path(self):
        ctx = QContext.floating(0.5)
        spec = OperatorSpec(3, ctx, Scalar.floating(1.0), Scalar.floating(2.0))
        x = Scalar.floating(0.3)
        exact = durrmeyer_apply_poly(spec, Polynomial.monomial(2, Backend.FLOAT)).eval(x)

        table = {ctx.q_power(j): None for j in range(1200)}
        # the affine map sends nodes off the Jackson grid, so tabulate the
        # mapped points instead of the nodes themselves
        # mapped points as the operator forms them, ([n]_q t + alpha) / ([n]_q + beta)
        qn, denom = ctx.q_int(3), ctx.q_int(3) + Scalar.floating(2.0)
        points = [(qn * p + Scalar.floating(1.0)) / denom for p in table]
        mapped = {u: u ** 2 for u in points}
        series = durrmeyer_apply_fn(spec, FunctionSpec.tabulated(mapped), x, tol=1e-14)
        assert abs(float(series) - float(exact)) < 1e-11

    def test_function_path_stays_in_domain(self):
        # a t + b with a = [n]/([n]+beta), b = alpha/([n]+beta) rounds above 1
        # at t = 1 for (n, alpha = beta) = (6, 1), (5, 0.1), (64, 0.5), (15, 1)
        # on these q; the first Jackson node is t = 1, and with tol = 1e-300
        # every call must get past it to the truncation error
        f = FunctionSpec.builtin("exp")
        for n in range(2, 65):
            for q in (1.0 - 1.0 / n, 1.0 - float(n) ** -2, 0.9):
                for ab in (0.1, 0.5, 1.0):
                    ab = Scalar.floating(ab)
                    spec = OperatorSpec(n, QContext.floating(q), ab, ab)
                    with pytest.raises(JacksonTruncationError):
                        durrmeyer_apply_fn(spec, f, Scalar.floating(0.5), tol=1e-300, max_terms=1)


class TestClassical:
    def test_examples(self):
        assert classical_durrmeyer_apply(
            3, Polynomial.one(Backend.EXACT)
        ) == Polynomial.one(Backend.EXACT)
        assert classical_durrmeyer_apply(
            1, Polynomial.monomial(1, Backend.EXACT)
        ) == Polynomial.from_fractions([Fraction(1, 3), Fraction(1, 3)])
        assert classical_durrmeyer_apply(
            2, Polynomial.monomial(1, Backend.EXACT)
        ) == Polynomial.from_fractions([Fraction(1, 4), Fraction(1, 2)])

    def test_first_moment_closed_form(self):
        # (1 + n x) / (n + 2) for every n
        for n in range(1, 9):
            got = classical_durrmeyer_apply(n, Polynomial.monomial(1, Backend.EXACT))
            assert got == Polynomial.from_fractions(
                [Fraction(1, n + 2), Fraction(n, n + 2)]
            )

    def test_vanishing_term_is_skipped(self):
        # p = 1 - 4t at n = 2: the k = 0 weight is 1/3 - 4/12 = 0; the image is 1 - (1 + 2x)
        p = Polynomial.from_fractions([1, -4])
        assert classical_durrmeyer_apply(2, p) == Polynomial.from_fractions([0, -2])

    def test_polynomial_only(self):
        with pytest.raises(BackendMismatchError):
            classical_durrmeyer_apply(2, Polynomial((Scalar.floating(1.0),)))

    def test_degree_must_be_positive(self):
        with pytest.raises(DomainError):
            classical_durrmeyer_apply(0, Polynomial.one(Backend.EXACT))

    def test_q_to_one_bridge(self):
        # plain image of t at q = 1 - 2^-i approaches the classical image
        # coefficientwise at rate O(1-q)
        for n in range(1, 5):
            classical = classical_durrmeyer_apply(n, Polynomial.monomial(1, Backend.EXACT))
            prev = None
            for i in (4, 6, 8, 10, 12):
                q = Fraction(2 ** i - 1, 2 ** i)
                ctx = QContext.exact(q)
                image = durrmeyer_apply_poly(
                    OperatorSpec(n, ctx), Polynomial.monomial(1, Backend.EXACT)
                )
                worst = max(
                    abs(image.coefficient(j) - classical.coefficient(j)) for j in range(2)
                )
                assert worst <= 4 * (1 - q)
                if prev is not None:
                    assert worst < prev
                prev = worst
