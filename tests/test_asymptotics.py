import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdurrmeyer import (
    Backend,
    BackendMismatchError,
    ConvergenceRow,
    DomainError,
    FunctionSpec,
    OperatorSpec,
    Polynomial,
    QContext,
    Scalar,
    SingularRemainderError,
    convergence_grid,
    convergence_table,
    durrmeyer_apply_fn,
    jackson_integral,
    q_derivative,
    q_taylor_remainder,
    voronovskaja_lhs,
    voronovskaja_rhs,
)
from qdurrmeyer.asymptotics import (
    QSequence,
    _err_not_above,
    decay_slope,
    scaled_central_moment_at,
)

T2 = Polynomial.monomial(2, Backend.EXACT)
X03 = Scalar.exact(Fraction(3, 10))


class TestQSequence:
    def test_inv_n_exact_values(self):
        seq = QSequence.one_minus_inv_n()
        assert seq.value(8) == Fraction(7, 8)
        assert float(seq.value(8, Backend.FLOAT)) == 1 - 1 / 8

    def test_fields_refuse_assignment(self):
        seq = QSequence.one_minus_inv_n()
        for name in ("label", "exact", "floating", "a"):
            with pytest.raises(AttributeError):
                setattr(seq, name, None)
        assert seq.label == "one-minus-inv-n" and seq.value(8) == Fraction(7, 8)

    def test_sqrt_needs_float(self):
        seq = QSequence.one_minus_inv_sqrt_n()
        with pytest.raises(BackendMismatchError):
            seq.value(9)
        assert 0 < float(seq.value(9, Backend.FLOAT)) < 1

    def test_power_decay(self):
        seq = QSequence.power_decay(2)
        assert seq.value(4) == Fraction(15, 16)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            QSequence.one_minus_inv_n().value(1)

    @pytest.mark.parametrize("seq", [
        QSequence.one_minus_inv_n(),
        QSequence.one_minus_inv_sqrt_n(),
        QSequence.power_decay(1),
        QSequence.power_decay(2),
    ], ids=lambda seq: seq.label)
    def test_declared_a_is_the_limit_of_q_power_n(self, seq):
        # q_n^n tends to 1/e along 1 - 1/n, to 0 along 1 - 1/sqrt(n), to 1 along 1 - 1/n^2
        n = 1 << 20
        assert abs(seq.a - float(seq.value(n, Backend.FLOAT)) ** n) < 1e-5


class TestZeroPolynomial:
    """Polynomial.zero has no coefficients; every entry point that takes f gives 0 for it."""

    @pytest.mark.parametrize("backend", list(Backend))
    def test_every_entry_point_gives_zero(self, backend):
        zero = Polynomial.zero(backend)
        ctx = QContext(Scalar(Fraction(1, 2), backend))
        x, t = Scalar(Fraction(3, 10), backend), Scalar(Fraction(7, 10), backend)
        alpha, beta = Scalar(1, backend), Scalar(2, backend)
        values = {
            "lhs": voronovskaja_lhs(zero, x, 6, ctx.q),
            "lhs stancu": voronovskaja_lhs(zero, x, 6, ctx.q, alpha, beta),
            "rhs limit": voronovskaja_rhs(zero, x, alpha, beta),
            "apply_fn": durrmeyer_apply_fn(OperatorSpec(6, ctx), zero, x),
            "apply_fn stancu": durrmeyer_apply_fn(OperatorSpec(6, ctx, alpha, beta), zero, x),
            "jackson": jackson_integral(zero, ctx),
            "D_q": q_derivative(zero, x, ctx),
            "D_q^2": q_derivative(zero, x, ctx, order=2),
            "D_q at 0": q_derivative(zero, ctx.zero, ctx),
            "theta": q_taylor_remainder(zero, x, t, ctx),
        }
        for name, value in values.items():
            assert value.backend is backend and value.is_zero, name
        (row,) = convergence_table(zero, x, QSequence.power_decay(2), [8])
        assert row.error is None and row.abs_err.is_zero


class TestVoronovskajaLhs:
    def test_constant_gives_zero(self, ctx_half):
        one = Polynomial([Scalar.exact(1)])
        assert voronovskaja_lhs(one, X03, 4, ctx_half.q).is_zero

    def test_first_moment_closed_identity(self):
        # [n](D(t;x) - x) == [n](1 - (1+q^(n+1))x)/[n+2], exactly, any n and q
        f = Polynomial.monomial(1, Backend.EXACT)
        for q in (Fraction(1, 2), Fraction(7, 9)):
            for n in (2, 5, 17, 64):
                ctx = QContext.exact(q)
                for xf in (Fraction(1, 4), Fraction(1, 2), Fraction(9, 13)):
                    x = Scalar.exact(xf)
                    got = voronovskaja_lhs(f, x, n, ctx.q)
                    expected = (
                        ctx.q_int(n)
                        * (ctx.one - (ctx.one + ctx.q_power(n + 1)) * x)
                        / ctx.q_int(n + 2)
                    )
                    assert got == expected

    def test_quadratic_against_moment_value(self, ctx_half):
        from qdurrmeyer import raw_moment_closed

        got = voronovskaja_lhs(T2, X03, 2, ctx_half.q)
        image = raw_moment_closed(2, 2, ctx_half).eval(X03)
        assert got == ctx_half.q_int(2) * (image - X03 * X03)

    def test_matches_kernel_sum_at_desk_scale(self, ctx_half):
        # the closed-table fast path must equal the brute kernel path
        from qdurrmeyer import OperatorSpec, durrmeyer_apply_poly

        p = Polynomial.from_fractions([1, -1, 2, 0, 1])
        image = durrmeyer_apply_poly(OperatorSpec(6, ctx_half), p)
        expected = ctx_half.q_int(6) * (image.eval(X03) - p.eval(X03))
        assert voronovskaja_lhs(p, X03, 6, ctx_half.q) == expected
        alpha, beta = Scalar.exact(1, 3), Scalar.exact(1, 2)
        image = durrmeyer_apply_poly(OperatorSpec(6, ctx_half, alpha, beta), p)
        expected = ctx_half.q_int(6) * (image.eval(X03) - p.eval(X03))
        assert voronovskaja_lhs(p, X03, 6, ctx_half.q, alpha, beta) == expected

    def test_stancu_needs_parameters(self, ctx_half):
        with pytest.raises(DomainError):
            voronovskaja_lhs(T2, X03, 4, ctx_half.q, alpha=Scalar.exact(1))

    def test_interior_point_required(self, ctx_half):
        with pytest.raises(DomainError):
            voronovskaja_lhs(T2, Scalar.exact(0), 4, ctx_half.q)


class TestVoronovskajaRhs:
    def test_limit_form_examples(self):
        # (1-2x) f' + x(1-x) f'' at f = t^2, x = 0.3
        assert voronovskaja_rhs(T2, X03) == Fraction(33, 50)
        got = voronovskaja_rhs(T2, X03, Scalar.exact(1), Scalar.exact(2))
        assert got == Fraction(9, 10)

    def test_alpha_needs_beta(self):
        alpha = Scalar.exact(1)
        with pytest.raises(DomainError):
            voronovskaja_rhs(T2, X03, alpha=alpha)
        with pytest.raises(DomainError):
            convergence_grid(T2, [X03], QSequence.one_minus_inv_n(), [8], alpha=alpha)

    def test_constant_gives_zero(self):
        one = Polynomial([Scalar.exact(1)])
        assert voronovskaja_rhs(one, X03).is_zero

    def test_builtin_limit_form(self):
        x = Scalar.floating(0.3)
        got = voronovskaja_rhs(FunctionSpec.builtin("exp"), x)
        expected = (1 - 0.6) * math.exp(0.3) + 0.3 * 0.7 * math.exp(0.3)
        assert abs(float(got) - expected) < 1e-14


class TestConvergenceTable:
    def test_structure_and_trend(self):
        seq = QSequence.power_decay(2)
        rows = convergence_table(T2, X03, seq, [8, 16, 32, 64])
        assert [r.n for r in rows] == [8, 16, 32, 64]
        assert all(r.rhs_limit == Fraction(33, 50) for r in rows)
        assert rows[0].err_decreased is None
        assert all(r.err_decreased for r in rows[1:])

    def test_abs_err_is_recomputed(self):
        seq = QSequence.one_minus_inv_n()
        row = convergence_table(T2, X03, seq, [8])[0]
        assert row.abs_err == abs(row.lhs - row.rhs_limit)

    def test_abs_err_is_formed_at_construction(self):
        q, lhs, rhs = Scalar.exact(7, 8), Scalar.exact(1, 3), Scalar.exact(3, 4)
        row = ConvergenceRow(8, q, lhs, rhs)
        assert row.abs_err == Fraction(5, 12) and row.error is None and row.err_decreased is None
        assert ConvergenceRow(8, q, None, rhs, error="boom").abs_err is None
        assert ConvergenceRow(8, q, lhs, None).abs_err is None

    def test_symmetry_point_has_zero_target(self, ctx_half):
        f = Polynomial.monomial(1, Backend.EXACT)
        x = Scalar.exact(1, 2)
        rows = convergence_table(f, x, QSequence.one_minus_inv_n(), [4, 8])
        assert all(r.rhs_limit.is_zero for r in rows)
        for r in rows:
            ctx = QContext(r.q_n)
            expected = (
                ctx.q_int(r.n)
                * (ctx.one - (ctx.one + ctx.q_power(r.n + 1)) * x)
                / ctx.q_int(r.n + 2)
            )
            assert r.lhs == expected

    def test_row_failures_are_recorded(self):
        f = FunctionSpec.builtin("exp")
        x = Scalar.floating(0.3)
        seq = QSequence.one_minus_inv_n()
        (rows,) = convergence_grid(f, [x], seq, [512], max_terms=5)
        assert rows[0].error is not None
        assert rows[0].abs_err is None

    def test_n_list_must_increase(self):
        with pytest.raises(DomainError):
            convergence_table(T2, X03, QSequence.one_minus_inv_n(), [8, 8])
        with pytest.raises(DomainError):
            decay_slope(2, Scalar.exact(1, 3), QSequence.power_decay(2), [8, 8])

    def test_empty_x_list_rejected(self):
        with pytest.raises(DomainError):
            convergence_grid(T2, [], QSequence.one_minus_inv_n(), [8])

    def test_plain_limit_along_admissible_sequence(self):
        # q_n^n -> 1 realizes the classical second-order limit 0.66
        rows = convergence_table(T2, X03, QSequence.power_decay(2), [64, 128, 256, 512])
        final = rows[-1]
        assert float(final.abs_err) < 0.05 * 0.66
        assert all(r.err_decreased for r in rows[1:])

    def test_stancu_limit_along_admissible_sequence(self):
        rows = convergence_table(
            T2,
            X03,
            QSequence.power_decay(2),
            [64, 128, 256, 512],
            Scalar.exact(1),
            Scalar.exact(2),
        )
        assert float(rows[-1].abs_err) < 0.05 * 0.90

    def test_default_sequence_drifts_to_adjusted_limit(self):
        # along q_n = 1 - 1/n the scaled deviation converges, but to the
        # target with 1 + lim q_n^n in place of 2 in the first-order factor
        rows = convergence_table(T2, X03, QSequence.one_minus_inv_n(), [128, 256, 512])
        a = math.exp(-1)
        x = 0.3
        adjusted = (1 - (1 + a) * x) * (2 * x) + x * (1 - x) * 2
        assert abs(float(rows[-1].lhs) - adjusted) < 0.01
        assert abs(adjusted - 0.66) > 0.1  # visibly away from the classical target


class TestErrorOrder:
    """abs_err compares on floats first and falls back to the exact `<`."""

    NEAR = (Scalar.exact(1 + Fraction(1, 2 ** 61)), Scalar.exact(1 + Fraction(1, 2 ** 60)))

    def test_float_tie_is_ordered_exactly(self):
        lo, hi = self.NEAR
        assert float(lo) == float(hi)
        assert _err_not_above(lo, hi)
        assert not _err_not_above(hi, lo)
        assert _err_not_above(lo, lo)

    def test_past_float_range_falls_back(self):
        huge, larger = Scalar.exact(10 ** 400), Scalar.exact(10 ** 400 + 1)
        with pytest.raises(OverflowError):
            float(huge)
        assert _err_not_above(huge, larger) and not _err_not_above(larger, huge)
        assert _err_not_above(huge, huge)
        assert _err_not_above(Scalar.exact(1), huge) and not _err_not_above(huge, Scalar.exact(1))

    def test_float_backend_is_the_bare_less_or_equal(self):
        values = [math.nan, math.inf, -math.inf, 0.0, 1.0, 5e-324]
        for a in values:
            for b in values:
                assert _err_not_above(Scalar.floating(a), Scalar.floating(b)) == (a <= b), (a, b)


class TestScaledCentralMoments:
    def test_first_limit_along_admissible_sequence(self):
        seq = QSequence.power_decay(2)
        q = seq.value(512)
        for xf in (Fraction(2, 10), Fraction(3, 10), Fraction(5, 10), Fraction(7, 10)):
            x = Scalar.exact(xf)
            got = float(scaled_central_moment_at(512, 1, q, x))
            target = 1 - 2 * float(xf)
            assert abs(got - target) <= 0.05 * max(abs(target), 0.1)

    def test_second_limit_is_sequence_insensitive(self):
        # 2x(1-x) emerges along both sequences, q_n^n -> 1 or not
        for seq in (QSequence.one_minus_inv_n(), QSequence.power_decay(2)):
            q = seq.value(512)
            for xf in (Fraction(2, 10), Fraction(5, 10)):
                x = Scalar.exact(xf)
                got = float(scaled_central_moment_at(512, 2, q, x))
                target = 2 * float(xf) * (1 - float(xf))
                assert abs(got - target) <= 0.05 * max(abs(target), 0.1)

    def test_first_limit_adjusted_along_default_sequence(self):
        # along 1 - 1/n the true limit is 1 - (1 + q_n^n) x
        seq = QSequence.one_minus_inv_n()
        n = 512
        q = seq.value(n)
        a = float(q) ** n
        for xf in (Fraction(3, 10), Fraction(7, 10)):
            x = Scalar.exact(xf)
            got = float(scaled_central_moment_at(n, 1, q, x))
            adjusted = 1 - (1 + a) * float(xf)
            assert abs(got - adjusted) < 0.01

    def test_decay_slopes_are_second_order(self):
        # both the third and fourth q-central moments decay like [n]^-2;
        # positivity pins the fourth above the squared second moment
        x = X03
        n_list = [64, 128, 256, 512]
        for seq in (QSequence.one_minus_inv_n(), QSequence.power_decay(2)):
            s3 = decay_slope(3, x, seq, n_list)
            s4 = decay_slope(4, x, seq, n_list)
            assert -2.3 < s3 < -1.7
            assert -2.3 < s4 < -1.7

    def test_decay_slope_reads_the_backend_of_x(self):
        # the second central moment decays like [n]^-1; the q_n are built on x's backend
        x, n_list = Scalar.floating(0.3), [64, 128, 256, 512]
        assert -1.2 < decay_slope(2, x, QSequence.one_minus_inv_sqrt_n(), n_list) < -0.9
        slope = decay_slope(2, x, QSequence.power_decay(2), n_list)
        assert abs(slope - decay_slope(2, X03, QSequence.power_decay(2), n_list)) < 1e-9

    def test_fourth_moment_dominates_variance_squared(self):
        # Cauchy-Schwarz for the positive operator: D((t-x)^4) >= D((t-x)^2)^2,
        # which forbids decay faster than [n]^-2
        seq = QSequence.power_decay(2)
        for n in (64, 256):
            q = seq.value(n)
            ctx = QContext(q)
            x = X03
            from qdurrmeyer import central_moment

            qc1 = central_moment(n, 1, ctx, "closed").eval(x)
            qc2 = central_moment(n, 2, ctx, "closed").eval(x)
            # ordinary powers from the q-shifted ones
            mu2 = qc2 + x * (ctx.one - ctx.q) * qc1
            e = central_factor_expand_ordinary(n, ctx, x)
            assert float(e) >= float(mu2) ** 2 - 1e-12


def central_factor_expand_ordinary(n, ctx, x):
    """D((t-x)^4; x) via binomial recombination of raw moments."""
    from math import comb

    from qdurrmeyer import raw_moment_closed

    total = ctx.zero
    for j in range(5):
        sign = 1 if (4 - j) % 2 == 0 else -1
        total = total + (
            sign * comb(4, j) * x ** (4 - j) * raw_moment_closed(n, j, ctx).eval(x)
        )
    return total


class TestQTaylorRemainder:
    @given(
        c0=st.fractions(min_value=-3, max_value=3, max_denominator=8),
        c1=st.fractions(min_value=-3, max_value=3, max_denominator=8),
        c2=st.fractions(min_value=-3, max_value=3, max_denominator=8),
        xf=st.fractions(min_value=Fraction(1, 16), max_value=Fraction(15, 16), max_denominator=32),
        tf=st.fractions(min_value=0, max_value=1, max_denominator=32),
        q=st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10), max_denominator=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_vanishes_for_quadratics(self, c0, c1, c2, xf, tf, q):
        ctx = QContext.exact(q)
        f = Polynomial([Scalar.exact(c) for c in (c0, c1, c2)], Backend.EXACT)
        x, t = Scalar.exact(xf), Scalar.exact(tf)
        if t == x or t == ctx.q * x:
            return
        assert q_taylor_remainder(f, x, t, ctx).is_zero

    def test_cubic_has_exact_linear_remainder(self, ctx_half):
        # theta_q for t^3 collapses to t - q^2 x
        f = Polynomial.monomial(3, Backend.EXACT)
        x = Scalar.exact(1, 2)
        for tf in (Fraction(3, 4), Fraction(5, 8), Fraction(1, 5)):
            t = Scalar.exact(tf)
            got = q_taylor_remainder(f, x, t, ctx_half)
            assert got == t - ctx_half.q_power(2) * x

    def test_diagonal_is_zero(self, ctx_half):
        f = Polynomial.monomial(3, Backend.EXACT)
        x = Scalar.exact(2, 5)
        assert q_taylor_remainder(f, x, x, ctx_half).is_zero

    def test_singular_point_is_typed(self, ctx_half):
        f = Polynomial.monomial(3, Backend.EXACT)
        x = Scalar.exact(1, 2)
        with pytest.raises(SingularRemainderError):
            q_taylor_remainder(f, x, ctx_half.q * x, ctx_half)

    def test_joint_decay_toward_diagonal(self):
        # theta_{q_i}(x; t_i) -> 0 when t_i -> x together with q_i -> 1
        f = Polynomial.monomial(3, Backend.EXACT)
        x = Scalar.exact(1, 2)
        values = []
        for i in range(1, 11):
            q = Fraction(2 ** i - 1, 2 ** i)
            ctx = QContext.exact(q)
            t = Scalar.exact(Fraction(1, 2) + Fraction(1, 2 ** (i + 1)))
            values.append(abs(float(q_taylor_remainder(f, x, t, ctx))))
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.01

    def test_fixed_q_limit_is_nonzero(self, ctx_half):
        # at fixed q the cubic remainder tends to x(1 - q^2), not 0
        f = Polynomial.monomial(3, Backend.EXACT)
        x = Scalar.exact(1, 2)
        t = Scalar.exact(Fraction(1, 2) + Fraction(1, 2 ** 20))
        got = q_taylor_remainder(f, x, t, ctx_half)
        plateau = x * (ctx_half.one - ctx_half.q_power(2))
        assert abs(got - plateau) < Fraction(1, 2 ** 19)
