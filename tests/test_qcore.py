import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdurrmeyer import (
    Backend,
    BackendMismatchError,
    DomainError,
    FunctionSpec,
    JacksonTruncationError,
    OriginDerivativeError,
    Polynomial,
    QContext,
    Scalar,
    jackson_integral,
    q_beta,
    q_derivative,
    q_pochhammer_one_minus,
)
from qdurrmeyer.qcore import jackson_series

rational_q = st.fractions(
    min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=40
)


class TestScalar:
    def test_backends_never_mix(self):
        with pytest.raises(BackendMismatchError):
            Scalar.exact(1, 2) + Scalar.floating(0.5)
        with pytest.raises(BackendMismatchError):
            Scalar.floating(0.5) == Scalar.exact(1, 2)
        with pytest.raises(BackendMismatchError):
            Scalar.floating(0.5) * Fraction(1, 2)

    def test_int_literals_adopt_backend(self):
        assert Scalar.exact(1, 2) + 1 == Fraction(3, 2)
        assert Scalar.floating(0.5) * 2 == 1.0

    def test_exact_from_float_rejected(self):
        with pytest.raises(BackendMismatchError):
            Scalar(0.5, Backend.EXACT)

    def test_exact_arithmetic_is_exact(self):
        total = Scalar.exact(0)
        for _ in range(10):
            total = total + Scalar.exact(1, 10)
        assert total == 1

    def test_hashable(self):
        assert len({Scalar.exact(1, 2), Scalar.exact(2, 4)}) == 1

    def test_results_hold_a_plain_fraction_or_float(self):
        class Wide(float):
            def __radd__(self, other):
                return Wide(float(self) + other)

        x, y = Scalar.exact(1, 3), Scalar.floating(0.5)
        for s in (x + 1, x * Fraction(2, 5), 2 - x, x / 3, 1 / x, x ** -2, -x, abs(x)):
            assert type(s.value) is Fraction and s.backend is Backend.EXACT
        for s in (y + Wide(0.25), y * 3, 1 / y, y ** 3, -y, abs(y)):
            assert type(s.value) is float and s.backend is Backend.FLOAT
        with pytest.raises(AttributeError):
            (x + 1).value = Fraction(0)

    def test_integer_view_round_trips(self):
        for value in (Fraction(0), Fraction(-6, 4), Fraction(7, 3), Fraction(2 ** 70 + 1, 3 ** 40)):
            s = Scalar.exact(value)
            num, den = s.as_ratio()
            assert type(num) is int and type(den) is int and math.gcd(num, den) == 1
            back = Scalar.from_ratio(num, den, Backend.EXACT)
            assert type(back.value) is Fraction and back == s
        # an unreduced ratio is reduced by the one Fraction
        assert Scalar.from_ratio(6, -4, Backend.EXACT).as_ratio() == (-3, 2)
        for value in (0.0, -1.5, 0.3, 1e-300, 2.0 ** 600):
            s = Scalar.floating(value)
            assert s.as_ratio() == (value, 1)
            assert Scalar.from_ratio(*s.as_ratio(), Backend.FLOAT).value.hex() == value.hex()
        # one float division, never a Fraction
        got = Scalar.from_ratio(1.0, 3, Backend.FLOAT)
        assert type(got.value) is float and got.value == 1.0 / 3

    @pytest.mark.parametrize("num, den", [
        (1e300, 1e-300), (math.inf, 2.0), (math.inf, math.inf), (1.0, math.inf), (0, math.inf),
    ])
    def test_float_ratio_past_the_range_raises(self, num, den):
        with pytest.raises(DomainError):
            Scalar.from_ratio(num, den, Backend.FLOAT)


class TestQContext:
    def test_q_range_enforced(self):
        with pytest.raises(DomainError):
            QContext(Scalar.exact(1))
        with pytest.raises(DomainError):
            QContext(Scalar.exact(3, 2))
        with pytest.raises(DomainError):
            QContext(Scalar.floating(0.0))

    def test_immutable(self, ctx_half):
        with pytest.raises(AttributeError):
            ctx_half.q = Scalar.exact(1, 3)


class TestQInteger:
    def test_examples(self, ctx_half):
        assert ctx_half.q_int(0) == 0
        assert ctx_half.q_int(4) == Fraction(15, 8)
        assert QContext.exact(3, 4).q_int(3) == Fraction(37, 16)

    def test_negative_rejected(self, ctx_half):
        for ctx in (ctx_half, QContext.floating(0.5)):
            with pytest.raises(DomainError):
                ctx.q_int(-1)
            with pytest.raises(DomainError):
                ctx.q_int_numerator(-1)

    def test_recursion_identities(self, ctx_grid):
        # [n+1]_q = [n]_q + q^n = 1 + q [n]_q, exactly, for n <= 64
        for ctx in ctx_grid:
            for n in range(65):
                step = ctx.q_int(n + 1)
                assert step == ctx.q_int(n) + ctx.q_power(n)
                assert step == ctx.one + ctx.q * ctx.q_int(n)

    # (numerator, denominator) of q; the last two are not in lowest terms
    @pytest.mark.parametrize("num, den", [
        (1, 2), (5, 16), (13, 16), (1023, 1024), (1048575, 1048576), (10, 32), (2046, 2048),
    ])
    def test_exact_closed_form_equals_running_sum(self, num, den):
        ctx, q = QContext.exact(num, den), Fraction(num, den)
        wanted = set(range(41)) | {257, 1025}
        total, power = Fraction(0), Fraction(1)
        for n in range(max(wanted) + 1):
            if n in wanted:
                got = ctx.q_int(n)
                assert type(got.value) is Fraction and got.backend is Backend.EXACT
                assert got == total
                # S_n is prime to d, so it is the reduced numerator of [n]_q
                assert ctx.q_int_numerator(n) == total.numerator
            total, power = total + power, power * q

    def test_exact_q_int_keeps_no_additive_table(self):
        ctx = QContext.exact(1048575, 1048576)
        ctx.q_int(1024)
        assert len(ctx._qint) <= 3  # [0], [1] and [1024], not 1025 entries

    @pytest.mark.parametrize("q", [0.5, 0.3125, 0.8125, 0.9, 1 - 2 ** -10, 1 - 2 ** -20])
    def test_float_q_int_is_the_running_sum_bit_for_bit(self, q):
        ctx = QContext.floating(q)
        ctx.q_int(1025)
        total, power = 0.0, 1.0
        for n in range(1026):
            assert ctx.q_int(n).value.hex() == total.hex()
            total, power = total + power, power * q

    @pytest.mark.parametrize("q", [0.5, 0.9, 1 - 2 ** -20])
    def test_float_numerator_is_the_float_q_int(self, q):
        # the integer view of a float q is (q, 1), so S_n = [n]_q d^(n-1) = [n]_q
        ctx = QContext.floating(q)
        assert ctx.q.as_ratio() == (q, 1)
        for n in (0, 1, 2, 7, 64, 1025):
            assert ctx.q_int_numerator(n) == ctx.q_int(n).value

    def test_limit_is_n(self):
        # along q = 1 - 2^-i the q-integer approaches n at rate O(1-q)
        for i in (4, 8, 12):
            q = Fraction(2 ** i - 1, 2 ** i)
            ctx = QContext.exact(q)
            err = abs(ctx.q_int(6) - 6)
            assert err <= 15 * (1 - q)


class TestQFactorial:
    def test_examples(self, ctx_half):
        assert ctx_half.q_fact(0) == 1
        assert ctx_half.q_fact(3) == Fraction(21, 8)
        assert QContext.exact(3, 4).q_fact(2) == Fraction(7, 4)

    def test_negative_rejected(self, ctx_half):
        with pytest.raises(DomainError):
            ctx_half.q_fact(-2)

    def test_float_overflow_names_the_index(self):
        # [k]_q < 1/(1-q) = 100, so the float product leaves the range near k = 186
        ctx = QContext.floating(0.99)
        with pytest.raises(DomainError, match=r"\[186\]_q! overflows"):
            ctx.q_fact(200)
        assert math.isfinite(ctx.q_fact(185).value)


class TestQBinomial:
    def test_examples(self, ctx_half):
        assert ctx_half.q_binom(5, 0) == 1
        assert ctx_half.q_binom(2, 1) == Fraction(3, 2)
        assert ctx_half.q_binom(4, 2) == Fraction(35, 16)

    def test_out_of_range_rejected(self, ctx_half):
        with pytest.raises(DomainError):
            ctx_half.q_binom(3, -1)
        with pytest.raises(DomainError):
            ctx_half.q_binom(3, 4)

    def test_repeated_calls_return_the_identical_object(self):
        ctx = QContext.exact(13, 16)
        assert ctx.q_binom(30, 11) is ctx.q_binom(30, 11)

    @given(q=rational_q, n=st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_both_pascal_recursions(self, q, n):
        ctx = QContext.exact(q)
        for k in range(n + 1):
            b = ctx.q_binom(n, k)
            upper_left = ctx.q_binom(n - 1, k - 1) if k >= 1 else ctx.zero
            upper = ctx.q_binom(n - 1, k) if k <= n - 1 else ctx.zero
            assert b == upper_left + ctx.q_power(k) * upper
            assert b == ctx.q_power(n - k) * upper_left + upper


class TestPochhammer:
    def test_examples(self, ctx_half):
        assert q_pochhammer_one_minus(Scalar.exact(0), 7, ctx_half) == 1
        assert q_pochhammer_one_minus(Scalar.exact(1), 3, ctx_half) == 0
        assert q_pochhammer_one_minus(Scalar.exact(1, 2), 2, ctx_half) == Fraction(3, 8)

    def test_negative_length_rejected(self, ctx_half):
        with pytest.raises(DomainError):
            q_pochhammer_one_minus(Scalar.exact(1, 2), -1, ctx_half)


class TestQDerivative:
    def test_examples(self, ctx_half):
        t2, t3 = Polynomial.monomial(2, Backend.EXACT), Polynomial.monomial(3, Backend.EXACT)
        assert q_derivative(t2, Scalar.exact(1), ctx_half) == Fraction(3, 2)
        const = Polynomial([Scalar.exact(5)])
        assert q_derivative(const, Scalar.exact(2, 3), ctx_half) == 0
        assert q_derivative(t3, Scalar.exact(1, 2), ctx_half) == Fraction(7, 16)

    def test_polynomial_rule_works_at_origin(self, ctx_half):
        f = Polynomial([Scalar.exact(1), Scalar.exact(2), Scalar.exact(3)])
        assert q_derivative(f, Scalar.exact(0), ctx_half) == 2

    def test_builtin_at_origin_rejected(self):
        ctx = QContext.floating(0.5)
        with pytest.raises(OriginDerivativeError):
            q_derivative(FunctionSpec.builtin("exp"), Scalar.floating(0.0), ctx)

    def test_difference_quotient_matches_rule(self):
        # tabulated copy of t^2 on the three needed nodes vs the exact rule
        ctx = QContext.exact(1, 2)
        x = Scalar.exact(1, 2)
        nodes = [x, ctx.q * x, ctx.q * ctx.q * x]
        table = {p: p * p for p in nodes}
        f = FunctionSpec.tabulated(table)
        assert q_derivative(f, x, ctx, order=1) == q_derivative(
            Polynomial.monomial(2, Backend.EXACT), x, ctx, order=1
        )
        assert q_derivative(f, x, ctx, order=2) == q_derivative(
            Polynomial.monomial(2, Backend.EXACT), x, ctx, order=2
        )

    def test_order_two_of_cubic(self, ctx_half):
        # D_q^2 t^3 = [3][2] x
        t3 = Polynomial.monomial(3, Backend.EXACT)
        got = q_derivative(t3, Scalar.exact(1, 4), ctx_half, order=2)
        assert got == Fraction(7, 4) * Fraction(3, 2) * Fraction(1, 4)

    def test_slope_toward_classical_derivative(self):
        # D_q exp at 0.5 approaches exp(0.5) at rate O(1-q)
        errs = []
        for i in (4, 6, 8, 10):
            ctx = QContext.floating(1 - 2.0 ** -i)
            d = q_derivative(FunctionSpec.builtin("exp"), Scalar.floating(0.5), ctx)
            errs.append(abs(float(d) - math.exp(0.5)))
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        assert all(0.15 < r < 0.35 for r in ratios)  # halving q-gap halves the error


class TestJacksonIntegral:
    def test_examples(self, ctx_half):
        one = Polynomial([Scalar.exact(1)])
        assert jackson_integral(one, ctx_half) == 1
        assert jackson_integral(Polynomial.monomial(1, Backend.EXACT), ctx_half) == Fraction(2, 3)
        assert jackson_integral(Polynomial.monomial(2, Backend.EXACT), ctx_half) == Fraction(4, 7)

    def test_monomial_matches_beta(self, ctx_grid):
        for ctx in ctx_grid:
            for m in range(9):
                value = jackson_integral(Polynomial.monomial(m, Backend.EXACT), ctx)
                assert value == q_beta(m + 1, 1, ctx)
                assert value == ctx.one / ctx.q_int(m + 1)

    def test_series_path_on_tabulated_nodes(self):
        # t -> t sampled on the Jackson nodes; series must reproduce 1/[2]
        ctx = QContext.floating(0.5)
        table = {ctx_node: ctx_node for ctx_node in (ctx.q_power(j) for j in range(200))}
        got = jackson_series(FunctionSpec.tabulated(table).evaluate, ctx, tol=1e-30)
        assert abs(float(got) - 2 / 3) < 1e-15

    def test_tolerance_of_the_other_backend_is_refused(self):
        with pytest.raises(BackendMismatchError):
            jackson_series(FunctionSpec.builtin("exp").evaluate, QContext.floating(0.5),
                           tol=Scalar.exact(1, 10 ** 12))

    def test_truncation_failure_is_diagnosed(self):
        ctx = QContext.floating(0.999)
        with pytest.raises(JacksonTruncationError) as err:
            jackson_series(FunctionSpec.builtin("exp").evaluate, ctx, tol=1e-12, max_terms=10)
        assert err.value.last_term is not None
        assert err.value.terms == 10

    def test_builtin_needs_float_backend(self, ctx_half):
        with pytest.raises(BackendMismatchError):
            jackson_integral(FunctionSpec.builtin("sin"), ctx_half)

    @pytest.mark.parametrize("max_terms", [0, -1])
    def test_nonpositive_max_terms_rejected(self, max_terms):
        ctx = QContext.floating(0.5)
        with pytest.raises(DomainError, match="max_terms"):
            jackson_series(FunctionSpec.builtin("exp").evaluate, ctx, max_terms=max_terms)

    def test_builtin_series_value(self):
        # int_0^1 sin d_q t at q close to 1 approaches 1 - cos(1)
        ctx = QContext.floating(1 - 2.0 ** -14)
        got = jackson_series(FunctionSpec.builtin("sin").evaluate, ctx, tol=1e-13, max_terms=400000)
        assert abs(float(got) - (1 - math.cos(1.0))) < 2e-4


class TestQBeta:
    def test_examples(self, ctx_half):
        assert q_beta(1, 1, ctx_half) == 1
        assert q_beta(2, 1, ctx_half) == Fraction(2, 3)
        assert q_beta(2, 2, ctx_half) == Fraction(8, 21)

    def test_domain(self, ctx_half):
        with pytest.raises(DomainError):
            q_beta(0, 1, ctx_half)
        with pytest.raises(DomainError):
            q_beta(1, 0, ctx_half)

    def test_matches_jackson_series_exactly(self, ctx_grid):
        # expand t^(a-1)(1-qt)_q^(b-1) and integrate in closed form, a+b <= 20
        for ctx in ctx_grid:
            for a in range(1, 10):
                for b in range(1, 21 - a):
                    poly = Polynomial.monomial(a - 1, ctx.backend)
                    for s in range(b - 1):
                        poly = poly * Polynomial((ctx.one, -ctx.q_power(s + 1)), ctx.backend)
                    assert jackson_integral(poly, ctx) == q_beta(a, b, ctx)


class TestFunctionSpec:
    def test_builtins_bounded_on_unit_interval(self):
        for name in ("exp", "sin", "sqrt-shift", "abs-shift", "reciprocal-shift"):
            f = FunctionSpec.builtin(name)
            values = [float(f.evaluate(Scalar.floating(t / 64))) for t in range(65)]
            assert all(math.isfinite(v) for v in values)
            assert max(abs(v) for v in values) < 3.0

    def test_domain_enforced(self, ctx_half):
        with pytest.raises(DomainError):
            FunctionSpec.builtin("exp").evaluate(Scalar.floating(1.5))
        f = FunctionSpec.tabulated({Scalar.exact(3, 2): Scalar.exact(9, 4)})
        with pytest.raises(DomainError):
            f.evaluate(Scalar.exact(3, 2))

    def test_tabulated_missing_point(self):
        f = FunctionSpec.tabulated({Scalar.exact(1, 2): Scalar.exact(1, 4)})
        assert f.evaluate(Scalar.exact(1, 2)) == Fraction(1, 4)
        with pytest.raises(DomainError):
            f.evaluate(Scalar.exact(1, 3))

    def test_unknown_builtin_rejected(self):
        with pytest.raises(DomainError):
            FunctionSpec.builtin("tan")

    def test_repr_names_the_kind(self):
        assert repr(FunctionSpec.builtin("exp")) == "FunctionSpec(exp)"
        table = {Scalar.floating(0.5): Scalar.floating(1.0)}
        assert repr(FunctionSpec.tabulated(table)) == "FunctionSpec(tabulated, 1 pts)"
