import gc
import inspect
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdurrmeyer import (
    Backend,
    BackendMismatchError,
    DomainError,
    FunctionSpec,
    OperatorSpec,
    Polynomial,
    QContext,
    Scalar,
    central_factor_expand,
    central_moment,
    durrmeyer_apply_fn,
    durrmeyer_apply_poly,
    raw_moment_brute,
    raw_moment_closed,
    raw_moment_recurrence,
    stancu_central_moment,
    stancu_moment,
    transcription_audit,
    voronovskaja_lhs,
)
from qdurrmeyer import moments, operators
from qdurrmeyer.asymptotics import QSequence, convergence_grid
from qdurrmeyer.moments import (
    central_identity_coefficients,
    stated_central_factor,
    stated_central_moment,
    scaled_deviation_at,
    stated_raw_moment,
    stated_stancu_central_moment,
    stated_stancu_moment,
)
from qdurrmeyer.verify import build_report

from conftest import Q_GRID

rational_q = st.fractions(
    min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=40
)

# The closed tables for m <= 4, derived by hand from the kernel sums: c_{m,j}(q) as
# coefficient lists in q, constant term first, with the x^j coefficient of D(t^m; x)
#     q^(j^2) [n]_q [n-1]_q ... [n-j+1]_q c_{m,j}(q) / ([n+2]_q ... [n+m+1]_q).
HAND_CLOSED_TABLE = (
    ((1,),),
    ((1,), (1,)),
    ((1, 1), (1, 2, 1), (1,)),  # [2], [2]^2, 1
    ((1, 2, 2, 1), (1, 3, 5, 5, 3, 1), (1, 2, 3, 2, 1), (1,)),  # [3][2], [2][3]^2, [3]^2, 1
    (
        (1, 3, 5, 6, 5, 3, 1),  # [4][3][2]
        (1, 4, 9, 15, 19, 19, 15, 9, 4, 1),  # [2] (1, 3, 6, 9, 10, 9, 6, 3, 1)
        (1, 3, 7, 11, 14, 14, 11, 7, 3, 1),
        (1, 2, 3, 4, 3, 2, 1),
        (1,),
    ),
)


class TestRawMoments:
    def test_zeroth_is_one(self, ctx_half):
        assert raw_moment_brute(2, 0, ctx_half) == Polynomial.one(Backend.EXACT)
        assert raw_moment_closed(2, 0, ctx_half) == Polynomial.one(Backend.EXACT)

    def test_first_moment_examples(self, ctx_half):
        expected = Polynomial.from_fractions([Fraction(8, 15), Fraction(2, 5)])
        assert raw_moment_brute(2, 1, ctx_half) == expected
        assert raw_moment_closed(2, 1, ctx_half) == expected
        # n = 1: (1 + q x)/[3]_q
        assert raw_moment_brute(1, 1, ctx_half) == Polynomial.from_fractions(
            [Fraction(4, 7), Fraction(2, 7)]
        )

    def test_second_moment_at_one(self, ctx_half):
        # the x^2 coefficient carries q^4 [n][n-1]; at x = 1 the value is 28/31
        assert raw_moment_closed(2, 2, ctx_half).eval(Scalar.exact(1)) == Fraction(28, 31)

    def test_route_agreement_full_grid(self):
        for q in Q_GRID:
            ctx = QContext.exact(q)
            for n in range(1, 9):
                rec = raw_moment_recurrence(n, 4, ctx)
                for m in range(5):
                    brute = raw_moment_brute(n, m, ctx)
                    assert raw_moment_closed(n, m, ctx) == brute, (n, m, q)
                    assert rec[m] == brute, (n, m, q)

    def test_route_agreement_at_scale(self):
        for q in (Fraction(1, 2), Fraction(13, 16)):
            for n in (48, 64):
                ctx = QContext.exact(q)
                rec = raw_moment_recurrence(n, 4, ctx)
                for m in range(5):
                    brute = raw_moment_brute(n, m, ctx)
                    assert raw_moment_closed(n, m, ctx) == brute, (n, m, q)
                    assert rec[m] == brute, (n, m, q)

    @pytest.mark.parametrize("n", (256, 1024))
    def test_route_agreement_along_one_minus_inv_n_squared(self, n):
        ctx = QContext.exact(1 - Fraction(1, n * n))
        rec = raw_moment_recurrence(n, 4, ctx)
        for m in range(5):
            brute = raw_moment_brute(n, m, ctx)
            assert raw_moment_closed(n, m, ctx) == brute == rec[m], (n, m)

    def test_brute_route_forms_no_q_factorial(self):
        # near q = 1 the q-factorials of n = 256 are megabit fractions; the
        # kernel sum multiplies a few q-integers instead
        ctx = QContext.exact(65535, 65536)
        raw_moment_brute(256, 4, ctx)
        assert len(ctx._qfact) <= 2

    @pytest.mark.parametrize(
        "n, q",
        [(8, Fraction(1, 2)), (64, 1 - Fraction(1, 64 ** 2)),
         (200, Fraction("0.99")), (1024, Fraction("0.999"))],
    )
    def test_float_brute_matches_the_exact_table(self, n, q):
        # past n = 185 at q = 0.99 a float q-factorial overflows; the kernel sum forms none
        fctx, ectx = QContext.floating(float(q)), QContext.exact(q)
        for m in range(5):
            got, want = raw_moment_brute(n, m, fctx), raw_moment_closed(n, m, ectx)
            for i in range(m + 1):
                err = abs(Fraction(got.coefficient(i).value) - want.coefficient(i).value)
                assert err < Fraction(1, 10 ** 12), (n, q, m, i)

    def test_closed_equals_brute_coefficientwise_example(self):
        ctx = QContext.exact(3, 4)
        assert raw_moment_closed(3, 4, ctx) == raw_moment_brute(3, 4, ctx)

    def test_closed_covers_degree_five(self, ctx_half):
        assert raw_moment_closed(3, 5, ctx_half) == raw_moment_brute(3, 5, ctx_half)

    def test_degree_bound(self):
        ctx = QContext.exact(1, 3)
        for n in (1, 2, 4):
            for m in range(7):
                assert raw_moment_brute(n, m, ctx).degree <= min(m, n)

    def test_memoized_per_context(self, ctx_half):
        assert raw_moment_brute(3, 2, ctx_half) is raw_moment_brute(3, 2, ctx_half)
        other = QContext.exact(1, 2)
        # same q, distinct context object: cached separately, equal values
        assert raw_moment_brute(3, 2, other) == raw_moment_brute(3, 2, ctx_half)

    def test_float_backend_respects_degree_bound(self):
        # the kernel sum's cancelling high-order terms must not survive
        # as float residue above the theoretical degree min(m, n)
        ctx = QContext.floating(0.85)
        for n in (1, 2, 3, 6):
            stancu = OperatorSpec(n, ctx, Scalar.floating(1.0), Scalar.floating(2.0))
            rec = raw_moment_recurrence(n, 4, ctx)
            for m in range(5):
                brute = raw_moment_brute(n, m, ctx)
                assert brute.degree <= min(m, n)
                t_m = Polynomial.monomial(m, Backend.FLOAT)
                assert durrmeyer_apply_poly(stancu, t_m).degree <= min(m, n)
                plain = durrmeyer_apply_poly(OperatorSpec(n, ctx), t_m)
                for poly in (raw_moment_closed(n, m, ctx), rec[m], plain):
                    assert poly.degree <= min(m, n)
                    worst = max(
                        abs(float(poly.coefficient(i)) - float(brute.coefficient(i)))
                        for i in range(m + 1)
                    )
                    assert worst < 1e-12


class TestIntegerClosedTable:
    """The closed tables evaluated on integer numerators over powers of d."""

    def test_generated_rows_equal_the_hand_table(self):
        assert tuple(moments._closed_row(m) for m in range(5)) == HAND_CLOSED_TABLE

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(13, 16), "one-minus-inv-n-squared"])
    def test_closed_brute_and_recurrence_agree_to_degree_twelve(self, n, q):
        ctx = QContext.exact(Fraction(n * n - 1, n * n) if isinstance(q, str) else q)
        rec = raw_moment_recurrence(n, 12, ctx)
        for m in range(13):
            assert raw_moment_closed(n, m, ctx) == raw_moment_brute(n, m, ctx) == rec[m], m

    @pytest.mark.parametrize("n", [256, 1024])
    def test_equals_recurrence_along_one_minus_inv_n_squared(self, n):
        ctx = QContext.exact(n * n - 1, n * n)
        rec = raw_moment_recurrence(n, 4, ctx)
        for m in range(5):
            assert raw_moment_closed(n, m, ctx) == rec[m], m

    def test_polynomial_image_on_one_denominator(self):
        # fractional coefficients with a zero among them share one lcm
        n, ctx = 8, QContext.exact(63, 64)
        coeffs = [ctx.scalar(Fraction(c)) for c in ("1/3", "-2", "0", "5/7", "1/2")]
        x = Scalar.exact(3, 10)
        p_at_x = sum((c * x ** m for m, c in enumerate(coeffs)), ctx.zero)
        for params in (None, (ctx.scalar(Fraction(1, 3)), ctx.scalar(Fraction(1, 2)))):
            image = sum(
                (c * (stancu_moment(n, m, ctx, *params) if params
                      else raw_moment_closed(n, m, ctx)).eval(x)
                 for m, c in enumerate(coeffs)),
                ctx.zero,
            )
            got = scaled_deviation_at(OperatorSpec(n, ctx, *(params or ())),
                                      Polynomial(coeffs, ctx.backend), x)
            assert got == ctx.q_int(n) * (image - p_at_x)

    def test_degree_five_row_equals_the_brute_image(self, ctx_half):
        n, x = 4, Scalar.exact(1, 3)
        coeffs = [ctx_half.scalar(Fraction(c)) for c in ("1/2", "0", "-3", "0", "2/7", "5")]
        p = Polynomial(coeffs, Backend.EXACT)
        brute = durrmeyer_apply_poly(OperatorSpec(n, ctx_half), p).eval(x)
        want = ctx_half.q_int(n) * (brute - p.eval(x))
        assert scaled_deviation_at(OperatorSpec(n, ctx_half), p, x) == want

    def test_refuses_what_the_tables_do_not_cover(self, ctx_half):
        with pytest.raises(BackendMismatchError):
            scaled_deviation_at(OperatorSpec(4, ctx_half), Polynomial.one(Backend.EXACT),
                                Scalar.floating(0.5))
        ctx = QContext.floating(0.5)
        with pytest.raises(BackendMismatchError):
            scaled_deviation_at(OperatorSpec(4, ctx), Polynomial.one(Backend.FLOAT),
                                Scalar.exact(1, 2))
        with pytest.raises(BackendMismatchError):
            scaled_deviation_at(OperatorSpec(4, ctx), Polynomial.one(Backend.EXACT),
                                Scalar.floating(0.5))

    def test_zero_polynomial_of_the_other_backend_is_refused(self):
        # the zero polynomial has no coefficients, but it still has a backend
        with pytest.raises(BackendMismatchError):
            voronovskaja_lhs(Polynomial.zero(Backend.FLOAT), Scalar.exact(3, 10), 6,
                             Scalar.exact(1, 2))

    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_float_tables_match_exact_ones(self, n):
        # dyadic q, so both backends see the same q
        for q in (Fraction(1, 2), Fraction(n * n - 1, n * n)):
            exact, floating = QContext.exact(q), QContext.floating(float(q))
            for m in range(5):
                want = raw_moment_closed(n, m, exact)
                got = raw_moment_closed(n, m, floating)
                assert got.degree <= m
                worst = max(
                    abs(got.coefficient(i).value - float(want.coefficient(i).value))
                    for i in range(m + 1)
                )
                assert worst < 1e-12, (q, m)

    def test_float_tables_to_degree_ten_match_exact_ones_at_the_same_double(self):
        # q = 0.9 is not dyadic: the exact reference takes its binary64 value
        n, q = 64, 0.9
        exact, floating = QContext.exact(Fraction(q)), QContext.floating(q)
        for m in range(11):
            want, got = raw_moment_closed(n, m, exact), raw_moment_closed(n, m, floating)
            assert got.degree == m
            for i in range(m + 1):
                ref = want.coefficient(i).value
                assert abs(Fraction(got.coefficient(i).value) - ref) <= 1e-12 * abs(ref), (m, i)

    @pytest.mark.parametrize("n", [8, 64, 256, 1024])
    @pytest.mark.parametrize("q_of_n", ["one-minus-inv-n-squared", "0.99"])
    @pytest.mark.parametrize("m, params", [(4, None), (3, (1, 2))])
    def test_float_rows_match_the_exact_row_at_the_same_doubles(self, n, q_of_n, m, params):
        # plain t^4 and Stancu (1, 2) t^3, each input read exactly at its binary64 value
        q = 1.0 - float(n) ** -2 if q_of_n == "one-minus-inv-n-squared" else 0.99
        x = 0.3
        rows = []
        for ctx, lift in ((QContext.floating(q), Scalar.floating),
                          (QContext.exact(Fraction(q)), lambda v: Scalar.exact(Fraction(v)))):
            spec = OperatorSpec(n, ctx, *(lift(v) for v in params or ()))
            rows.append(scaled_deviation_at(spec, Polynomial.monomial(m, ctx.backend), lift(x)))
        got, want = rows
        assert type(got.value) is float and type(want.value) is Fraction
        assert abs(Fraction(got.value) - want.value) <= 1e-12 * abs(want.value)

    def test_float_row_past_the_range_raises(self):
        # a Stancu row shares the denominator ([n]_q + beta)^M S_{n+2} ... S_{n+M+1},
        # about 1e361 here: the float row refuses instead of printing nan
        n, ctx = 4096, QContext.floating(1 - 4096.0 ** -2)
        spec = OperatorSpec(n, ctx, Scalar.floating(1.0), Scalar.floating(2.0))
        with pytest.raises(DomainError):
            scaled_deviation_at(spec, Polynomial.monomial(50, ctx.backend), Scalar.floating(0.3))

    @pytest.mark.parametrize("variant", ["plain", "stancu"])
    def test_one_row_needs_few_gcd_calls(self, monkeypatch, variant):
        # every Fraction normalisation calls math.gcd; a row built on integers
        # reduces once, where per-moment Fraction arithmetic made hundreds
        n = 1024
        f, x = Polynomial.monomial(4, Backend.EXACT), Scalar.exact(3, 10)
        q = Scalar.exact(n * n - 1, n * n)
        params = (Scalar.exact(1), Scalar.exact(2)) if variant == "stancu" else (None, None)
        calls = []
        real_gcd = math.gcd
        monkeypatch.setattr(math, "gcd", lambda *a: calls.append(a) or real_gcd(*a))
        voronovskaja_lhs(f, x, n, q, *params)
        monkeypatch.undo()
        assert len(calls) <= 20  # 237 (plain) and 395 (stancu) with Fraction steps

    @pytest.mark.parametrize("params", [None, (1, 2)])
    def test_sixth_degree_row_takes_no_kernel_sum(self, monkeypatch, params):
        # rows of every degree read the closed tables; a kernel sum is the brute route
        n = 256
        ctx = QContext.exact(n * n - 1, n * n)
        spec = OperatorSpec(n, ctx, *(ctx.scalar(v) for v in params or ()))
        calls = []
        for module in (moments, operators):
            real = module.durrmeyer_apply_poly
            monkeypatch.setattr(module, "durrmeyer_apply_poly",
                                lambda *a, real=real: calls.append(a) or real(*a))
        moments.scaled_deviation_at(spec, Polynomial.monomial(6, ctx.backend), Scalar.exact(3, 10))
        assert calls == []


class TestRecurrence:
    def test_first_step_reproduces_first_moment(self):
        # [n+2] M_1 = 1 + q x [n] with the n = 5 seed
        ctx = QContext.exact(1, 2)
        got = raw_moment_recurrence(5, 1, ctx)[1]
        n5 = ctx.q_int(5)
        expected = Polynomial(
            (ctx.one / ctx.q_int(7), ctx.q * n5 / ctx.q_int(7)), Backend.EXACT
        )
        assert got == expected

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_steps_past_n_stay_exact_without_the_brute_route(self, n, monkeypatch):
        # at m >= n the image keeps degree n; the recurrence never asks the kernel sum
        calls = []
        real = moments.raw_moment_brute
        monkeypatch.setattr(moments, "raw_moment_brute",
                            lambda *a: calls.append(a) or real(*a))
        for q in Q_GRID:
            ctx = QContext.exact(q)
            rec = raw_moment_recurrence(n, 10, ctx)
            assert calls == []
            for m in range(11):
                assert rec[m] == raw_moment_closed(n, m, ctx) == real(n, m, ctx), (n, m, q)

    def test_high_orders_match_brute(self, ctx_half):
        values = raw_moment_recurrence(8, 6, ctx_half)
        for m in (5, 6):
            assert values[m] == raw_moment_brute(8, m, ctx_half)


def live_contexts():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, QContext))


class TestContextMemo:
    def test_memo_is_freed_with_its_context(self):
        f, x, q = Polynomial.monomial(2, Backend.EXACT), Scalar.exact(3, 10), Scalar.exact(3, 4)
        voronovskaja_lhs(f, x, 8, q)
        before = live_contexts()
        for _ in range(50):
            voronovskaja_lhs(f, x, 8, q)
        assert live_contexts() <= before

    def test_kernel_integrals_are_freed_with_their_context(self):
        # n = 16 stops at max_terms = 200, so the memo also holds an error
        f, x, seq = FunctionSpec.builtin("exp"), Scalar.floating(0.3), QSequence.one_minus_inv_n()
        (rows,) = convergence_grid(f, [x], seq, [4, 8, 16], max_terms=200)
        assert rows[0].error is None and rows[-1].error is not None
        before = live_contexts()
        for _ in range(20):
            convergence_grid(f, [x], seq, [4, 8, 16], max_terms=200)
        assert live_contexts() <= before

    def test_verify_builds_each_expansion_and_stancu_recursion_once(self):
        # count executions of the function bodies, below any memo wrapper
        bodies = {
            inspect.unwrap(moments.central_factor_expand).__code__:
                lambda v: ("expand", v["m"], id(v["ctx"])),
            inspect.unwrap(moments.stancu_moment).__code__:
                lambda v: ("stancu", v["n"], v["m"], v["alpha"].value, v["beta"].value,
                           id(v["ctx"])),
        }
        runs = Counter()

        def count(frame, event, arg):
            if event == "call" and frame.f_code in bodies:
                runs[bodies[frame.f_code](frame.f_locals)] += 1

        sys.setprofile(count)
        try:
            report = build_report(10)
        finally:
            sys.setprofile(None)
        assert report["verdict"] == "pass"
        for body in ("expand", "stancu"):
            counts = [n for key, n in runs.items() if key[0] == body]
            assert counts and max(counts) == 1, (body, runs.most_common(3))

    def test_verify_leaves_no_contexts_behind(self):
        build_report(4)
        before = live_contexts()
        for _ in range(3):
            build_report(4)
        assert live_contexts() <= before

    def test_float_argument_misses_the_int_entry(self):
        # 2.0 == 2 and hash(2.0) == hash(2): a key without the type answers (3, 2.0) with m = 2
        ctx = QContext.exact(1, 3)
        raw_moment_brute(3, 2, ctx)
        with pytest.raises(TypeError):
            raw_moment_brute(3, 2.0, ctx)

    def test_repeated_calls_share_one_result(self):
        ctx = QContext.exact(1, 3)
        assert raw_moment_brute(3, 2, ctx) is raw_moment_brute(3, 2, ctx)
        assert raw_moment_recurrence(6, 4, ctx) is raw_moment_recurrence(6, 4, ctx)


class TestCentralFactor:
    # central_factor_expand(m, ctx)[j] is e_j, the t^j coefficient of (t-x)_q^m over x^(m-j)
    def test_single_factor(self, ctx_half):
        e = central_factor_expand(1, ctx_half)
        assert len(e) == 2
        assert e[1] == 1
        assert e[0] == -1

    def test_quadratic_example(self, ctx_half):
        e = central_factor_expand(2, ctx_half)
        assert len(e) == 3
        assert e[2] == 1
        assert e[1] == Fraction(-3, 2)
        assert e[0] == Fraction(1, 2)

    def test_quartic_t2_coefficient(self, ctx_half):
        # q([5]_q + q^2) x^2 = (35/32) x^2 at q = 1/2
        e = central_factor_expand(4, ctx_half)
        assert e[2] == Fraction(35, 32)

    @given(q=rational_q, x=st.fractions(min_value=Fraction(1, 16), max_value=1, max_denominator=32))
    @settings(max_examples=40, deadline=None)
    def test_roots_at_scaled_points(self, q, x):
        ctx = QContext.exact(q)
        xs = Scalar.exact(x)
        for m in range(1, 6):
            e = central_factor_expand(m, ctx)
            for s in range(m):
                t = ctx.q_power(s) * xs
                assert sum((c * t ** j * xs ** (m - j) for j, c in enumerate(e)), ctx.zero).is_zero

    def test_identity_tables_match_product(self, ctx_grid):
        for ctx in ctx_grid:
            for m in range(1, 9):
                assert central_factor_expand(m, ctx) == central_identity_coefficients(m, ctx)
        with pytest.raises(DomainError):
            central_identity_coefficients(-1, ctx_grid[0])

    def test_quoted_cubic_identity_is_misprinted(self, ctx_half):
        # the t coefficient of (t-x)_q^3 is q[3]x^2, not the quoted q[2]x^2
        quoted = stated_central_factor(3, ctx_half)
        true = central_identity_coefficients(3, ctx_half)
        assert quoted[1] != true[1]
        assert quoted[0] == true[0] and quoted[2:] == true[2:]


class TestCentralMoments:
    def test_first_central_is_first_raw_minus_x(self, ctx_grid):
        for ctx in ctx_grid:
            minus_x = Polynomial((ctx.zero, -ctx.one), Backend.EXACT)
            for n in range(1, 7):
                assert central_moment(n, 1, ctx) == raw_moment_brute(n, 1, ctx) + minus_x

    def test_value_example(self, ctx_half):
        # at n=2, x=1/2 the first central moment is 11/15 - 1/2 = 7/30
        got = central_moment(2, 1, ctx_half).eval(Scalar.exact(1, 2))
        assert got == Fraction(7, 30)

    def test_second_equals_linear_combination(self, ctx_half):
        for n in range(1, 6):
            lhs = central_moment(n, 2, ctx_half, "expansion")
            combo = (
                raw_moment_brute(n, 2, ctx_half)
                + Polynomial.from_fractions([0, Fraction(-3, 2)]) * raw_moment_brute(n, 1, ctx_half)
                + Polynomial.from_fractions([0, 0, Fraction(1, 2)])
            )
            assert lhs == combo

    def test_routes_agree(self, ctx_grid):
        for ctx in ctx_grid:
            for n in range(1, 7):
                for m in range(1, 5):
                    assert central_moment(n, m, ctx, "closed") == central_moment(
                        n, m, ctx, "expansion"
                    )

    def test_degree_bound(self, ctx_half):
        for n in range(1, 5):
            for m in range(1, 5):
                assert central_moment(n, m, ctx_half).degree <= m

    def test_both_routes_against_the_kernel_sum(self, ctx_grid):
        # at a fixed x0, (t - x0)_q^m = prod_s (t - q^s x0) is one polynomial in t, whose
        # kernel sum reads no moment table and makes no contraction
        for ctx in ctx_grid:
            for x0 in (Scalar.exact(1, 3), Scalar.exact(5, 8)):
                factor = Polynomial.one(Backend.EXACT)
                for m in range(1, 5):
                    factor = factor * Polynomial((-ctx.q_power(m - 1) * x0, ctx.one))
                    for n in range(1, 6):
                        want = durrmeyer_apply_fn(OperatorSpec(n, ctx), factor, x0)
                        for route in ("expansion", "closed"):
                            assert central_moment(n, m, ctx, route).eval(x0) == want, (n, m)


class TestStancuMoments:
    def test_zeroth_is_one(self, ctx_half):
        one = Polynomial.one(Backend.EXACT)
        assert stancu_moment(2, 0, ctx_half, Scalar.exact(1), Scalar.exact(2)) == one
        assert stated_stancu_moment(2, 0, ctx_half, Scalar.exact(1), Scalar.exact(2)) == one

    def test_first_moment_closed_example(self, ctx_half):
        got = stated_stancu_moment(2, 1, ctx_half, Scalar.exact(1), Scalar.exact(2))
        assert got == Polynomial.from_fractions([Fraction(54, 105), Fraction(18, 105)])

    def test_closed_matches_recursion(self, ctx_grid):
        for ctx in ctx_grid:
            for a, b in ((0, 0), (1, 2), (2, 5)):
                alpha, beta = ctx.scalar(a), ctx.scalar(b)
                for n in range(1, 6):
                    for m in range(3):
                        assert stated_stancu_moment(n, m, ctx, alpha, beta) == (
                            stancu_moment(n, m, ctx, alpha, beta)
                        )

    def test_zero_parameters_collapse(self, ctx_grid):
        for ctx in ctx_grid:
            zero = ctx.zero
            for n in range(1, 5):
                for m in range(7):
                    assert stancu_moment(n, m, ctx, zero, zero) == raw_moment_brute(n, m, ctx)

    def test_direct_equals_recursion_near_one(self):
        n = 256
        ctx = QContext.exact(1 - Fraction(1, n * n))
        alpha, beta = Scalar.exact(1, 3), Scalar.exact(1, 2)
        spec = OperatorSpec(n, ctx, alpha, beta)
        for m in range(5):
            direct = durrmeyer_apply_poly(spec, Polynomial.monomial(m, Backend.EXACT))
            assert direct == stancu_moment(n, m, ctx, alpha, beta), m

    def test_parameter_validation(self, ctx_half):
        with pytest.raises(DomainError):
            stancu_moment(2, 1, ctx_half, Scalar.exact(3), Scalar.exact(1))

    def test_memo_tells_the_backends_of_equal_parameters_apart(self, ctx_half):
        one, two = Scalar.exact(1), Scalar.exact(2)
        first = stancu_moment(2, 1, ctx_half, one, two)
        assert stancu_moment(2, 1, ctx_half, one, two) is first
        with pytest.raises(BackendMismatchError):
            stancu_moment(2, 1, ctx_half, Scalar.floating(1.0), Scalar.floating(2.0))

    @pytest.mark.parametrize("n", [8, 64, 256])
    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(13, 16), "one-minus-inv-n-squared"])
    def test_value_at_x_equals_polynomial_route(self, n, q):
        # closed route: also the integer-table image, scaled as in a Voronovskaja row
        ctx = QContext.exact(Fraction(n * n - 1, n * n) if isinstance(q, str) else q)
        xs = (Scalar.exact(25, 128), Scalar.exact(2, 3), Scalar.exact(3, 10))
        for m in range(5):
            t_m = Polynomial.monomial(m, ctx.backend)
            for x in xs:
                want = ctx.q_int(n) * (raw_moment_closed(n, m, ctx).eval(x) - x ** m)
                assert scaled_deviation_at(OperatorSpec(n, ctx), t_m, x) == want
        for a, b in ((0, 0), (1, 2), (Fraction(1, 3), Fraction(1, 2))):
            alpha, beta = ctx.scalar(a), ctx.scalar(b)
            for m in range(5):
                poly = stancu_moment(n, m, ctx, alpha, beta)
                t_m = Polynomial.monomial(m, ctx.backend)
                for x in xs:
                    dev = scaled_deviation_at(OperatorSpec(n, ctx, alpha, beta), t_m, x)
                    assert type(dev.value) is Fraction
                    assert dev == ctx.q_int(n) * (poly.eval(x) - x ** m)


class TestStancuCentralMoments:
    def test_first_at_origin(self, ctx_half):
        got = stancu_central_moment(2, 1, ctx_half, Scalar.exact(1), Scalar.exact(2))
        assert got.eval(Scalar.exact(0)) == Fraction(18, 35)

    def test_zero_parameters_give_plain_first_central(self, ctx_grid):
        # the quoted two-parameter first central moment at alpha = beta = 0
        # coincides with the plain one; checked at 16 rational points
        for ctx in ctx_grid:
            zero = ctx.zero
            for n in range(1, 6):
                closed = stated_stancu_central_moment(n, 1, ctx, zero, zero)
                plain = central_moment(n, 1, ctx)
                for i in range(1, 17):
                    x = ctx.scalar(Fraction(i, 17))
                    assert closed.eval(x) == plain.eval(x)

    def test_recombination_against_binomial_oracle(self, ctx_half):
        # at a fixed x0, (t - x0)^m is one polynomial in t; the Stancu kernel sum of it
        # reads no moment table and makes no contraction
        alpha, beta = Scalar.exact(1), Scalar.exact(2)
        for x0 in (Scalar.exact(1, 3), Scalar.exact(5, 8)):
            power = Polynomial.one(Backend.EXACT)
            for m in (1, 2, 3):
                power = power * Polynomial((-x0, ctx_half.one))
                for n in range(1, 5):
                    want = durrmeyer_apply_fn(OperatorSpec(n, ctx_half, alpha, beta), power, x0)
                    got = stancu_central_moment(n, m, ctx_half, alpha, beta)
                    assert got.eval(x0) == want, (n, m)

    def test_closed_first_matches_recombination(self, ctx_grid):
        for ctx in ctx_grid:
            for a, b in ((0, 0), (1, 2), (2, 5)):
                alpha, beta = ctx.scalar(a), ctx.scalar(b)
                for n in range(1, 5):
                    assert stated_stancu_central_moment(n, 1, ctx, alpha, beta) == (
                        stancu_central_moment(n, 1, ctx, alpha, beta)
                    )

    def test_quoted_tables_refuse_orders_they_do_not_cover(self, ctx_half):
        alpha, beta = Scalar.exact(1), Scalar.exact(2)
        with pytest.raises(DomainError):
            stated_stancu_moment(2, 3, ctx_half, alpha, beta)
        for m in (0, 3):
            with pytest.raises(DomainError):
                stated_stancu_central_moment(2, m, ctx_half, alpha, beta)

    def test_quoted_second_central_is_misprinted(self, ctx_half):
        # quoted m = 2 drops the alpha^2 constant and garbles one q-power;
        # the recombination route is the trusted one
        alpha, beta = Scalar.exact(1), Scalar.exact(2)
        closed = stated_stancu_central_moment(2, 2, ctx_half, alpha, beta)
        recomb = stancu_central_moment(2, 2, ctx_half, alpha, beta)
        assert closed != recomb


class TestQuotedForms:
    def test_quoted_raw_t2_differs_from_brute(self, ctx_half):
        # the quoted table has q^3 where the kernel sum yields q^4 on x^2
        for n in (2, 3, 5):
            assert stated_raw_moment(n, 2, ctx_half) != raw_moment_brute(n, 2, ctx_half)
        # at n = 1 the x^2 term vanishes and the misprint is invisible
        assert stated_raw_moment(1, 2, ctx_half) == raw_moment_brute(1, 2, ctx_half)

    def test_quoted_central_m1_is_correct(self, ctx_grid):
        for ctx in ctx_grid:
            for n in range(1, 7):
                assert stated_central_moment(n, 1, ctx) == central_moment(n, 1, ctx)

    def test_audit_statuses(self, ctx_grid):
        entries = {e.key: e.status for e in transcription_audit(ctx_grid)}
        assert entries == {
            "moment-t2-transcription": "mismatch-documented",
            "moment-t3-transcription": "mismatch-documented",
            "moment-t4-transcription": "mismatch-documented",
            "lemma1.1-m1-transcription": "match",
            "lemma1.1-m2-transcription": "mismatch-documented",
            "lemma1.1-m3-transcription": "mismatch-documented",
            "lemma1.1-m4-transcription": "mismatch-documented",
            "central-factor-m2-transcription": "match",
            "central-factor-m3-transcription": "mismatch-documented",
            "central-factor-m4-transcription": "match",
            "lemma-l1-m1-transcription": "match",
            "lemma-l1-m2-transcription": "match",
            "lemma-l4-m1-transcription": "match",
            "lemma-l4-m2-transcription": "mismatch-documented",
        }

    def test_mismatch_entries_carry_witnesses(self, ctx_grid):
        for e in transcription_audit(ctx_grid):
            if e.status == "mismatch-documented":
                assert e.witness

    def test_mismatch_witnesses_show_different_texts(self, ctx_grid):
        # "<label>: stated <text> vs derived <text>"; two equal texts would witness nothing
        for e in transcription_audit(ctx_grid):
            if e.status == "mismatch-documented":
                stated, derived = e.witness.split(": stated ", 1)[1].split(" vs derived ")
                assert stated != derived, e.key

    def test_audit_stops_at_the_first_mismatch(self, monkeypatch, ctx_grid):
        calls = Counter()

        def counting(name):
            original = getattr(moments, name)

            def counted(n, m, *rest):
                calls[name, m] += 1
                return original(n, m, *rest)

            return counted

        for name in ("stated_raw_moment", "stated_stancu_moment"):
            monkeypatch.setattr(moments, name, counting(name))
        transcription_audit(ctx_grid)
        # moment-t2 first mismatches at its second pair, n=2 q=1/4
        assert calls["stated_raw_moment", 2] == 2
        # lemma-l1-m1 matches, so all 3 q x 6 n x 3 (alpha, beta) cases run
        assert calls["stated_stancu_moment", 1] == 54


def _bump_form(form):
    return form[:-1] + (form[-1] + Scalar.exact(1),)


def _bump_poly(p):
    return p + Polynomial.one(Backend.EXACT)


# (audit entry, the derived route it reads, its quoted form, q and arguments of the broken
#  case, bump, witness label)
ROUTE_BREAKS = [
    ("lemma1.1-m1-transcription", "central_moment", stated_central_moment,
     Fraction(1, 2), lambda ctx: (4, 1, ctx), _bump_poly, "n=4 q=1/2"),
    ("central-factor-m2-transcription", "central_factor_expand", stated_central_factor,
     Fraction(3, 4), lambda ctx: (2, ctx), _bump_form, "q=3/4"),
    ("lemma-l1-m2-transcription", "stancu_moment", stated_stancu_moment,
     Fraction(1, 4), lambda ctx: (5, 2, ctx, ctx.scalar(1), ctx.scalar(2)), _bump_poly,
     "n=5 q=1/4 alpha=1 beta=2"),
    ("lemma-l4-m1-transcription", "stancu_central_moment", stated_stancu_central_moment,
     Fraction(3, 4), lambda ctx: (2, 1, ctx, ctx.scalar(2), ctx.scalar(5)), _bump_poly,
     "n=2 q=3/4 alpha=2 beta=5"),
]


@pytest.mark.parametrize("key, name, stated, q, case, bump, label", ROUTE_BREAKS,
                         ids=[b[0] for b in ROUTE_BREAKS])
def test_a_broken_route_is_documented_at_its_first_broken_case(
    monkeypatch, ctx_grid, key, name, stated, q, case, bump, label
):
    # the entry matches unbroken; breaking its route at one case makes that case the witness
    ctx = next(c for c in ctx_grid if c.q.value == q)
    args = case(ctx)
    original = getattr(moments, name)
    monkeypatch.setattr(moments, name,
                        lambda *a: bump(original(*a)) if a == args else original(*a))
    entry = {e.key: e for e in transcription_audit(ctx_grid)}[key]
    witness = f"{label}: stated {stated(*args)!r} vs derived {bump(original(*args))!r}"
    assert (entry.status, entry.witness) == ("mismatch-documented", witness)
