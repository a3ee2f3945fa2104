"""The full invariant suite behind the `verify` CLI command.

The report is one ordered table of named identities, each a stream of
(label, ok) cases judged by `moments.ReportRow.first_failure`, which fails
an entry at its first case that is not ok and evaluates no later case; the
transcription audit's rows go through the same rule.  The mandatory
identities must hold exactly: q-integer recursions
(exact `q_int` is a closed form, so [n+1]_q = [n]_q + q^n checks it against
the additive definition), Pascal rules, Jackson-vs-Beta agreement, partition
of unity, kernel mass, agreement of each route set of `moments` (raw,
central, Stancu) with its reference, and the q-Taylor remainder contracts.
The transcription audit entries are informational: they compare the usually
quoted closed forms against the derivation-based routes and report each as
match or mismatch-documented without affecting the verdict.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import SingularRemainderError
from .asymptotics import q_taylor_remainder
from .moments import (
    STANCU_PARAMS,
    ReportRow,
    central_factor_expand,
    central_moment,
    central_routes,
    raw_moment_brute,
    raw_routes,
    stancu_moment,
    stancu_routes,
    transcription_audit,
)
from .operators import OperatorSpec, bernstein_basis, durrmeyer_apply_poly, kernel_mass
from .polyalg import Polynomial
from .qcore import Backend, QContext, Scalar, jackson_integral, q_beta

__all__ = ["build_report", "DEFAULT_Q_VALUES"]

DEFAULT_Q_VALUES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))

_X_GRID_16 = [Fraction(i, 17) for i in range(1, 17)]


def _agree(label, route_set):
    """A (reference, routes) set as a case: ok when every route equals its reference."""
    reference, routes = route_set
    return label, all(value == reference for _, value in routes)


def _q_integer_cases(ctx):
    for n in range(65):
        lhs = ctx.q_int(n + 1)
        yield f"n={n} q={ctx.q}", (lhs == ctx.q_int(n) + ctx.q_power(n)
                                   and lhs == ctx.one + ctx.q * ctx.q_int(n))


def _pascal_cases(ctx):
    for n in range(1, 21):
        for k in range(n + 1):
            b = ctx.q_binom(n, k)
            left = (ctx.q_binom(n - 1, k - 1) if k >= 1 else ctx.zero) + (
                ctx.q_power(k) * ctx.q_binom(n - 1, k) if k <= n - 1 else ctx.zero
            )
            right = (
                ctx.q_power(n - k) * ctx.q_binom(n - 1, k - 1) if k >= 1 else ctx.zero
            ) + (ctx.q_binom(n - 1, k) if k <= n - 1 else ctx.zero)
            yield f"n={n} k={k} q={ctx.q}", b == left and b == right


def _jackson_beta_cases(ctx):
    for m in range(9):
        j = jackson_integral(Polynomial.monomial(m, ctx.backend), ctx)
        yield f"m={m} q={ctx.q}", j == q_beta(m + 1, 1, ctx) and j == ctx.one / ctx.q_int(m + 1)


def _beta_series_cases(ctx):
    # expand t^(a-1) (1-qt)_q^(b-1) as a polynomial, then integrate exactly
    products = [Polynomial.one(ctx.backend)]  # products[r] = (1-qt)_q^r
    for s in range(1, 19):
        products.append(products[-1] * Polynomial((ctx.one, -ctx.q_power(s)), ctx.backend))
    for a in range(1, 10):
        for b in range(1, 21 - a):
            poly = products[b - 1].shift_up(a - 1)
            integral = jackson_integral(poly, ctx)
            yield f"a={a} b={b} q={ctx.q}", integral == q_beta(a, b, ctx)


def _partition_cases(ctx, n_max):
    for n in range(1, n_max + 1):
        spec = OperatorSpec(n, ctx)
        for xf in _X_GRID_16:
            x = ctx.scalar(xf)
            total = sum(bernstein_basis(spec, k, x).value for k in range(n + 1))
            yield f"n={n} q={ctx.q} x={xf}", total == ctx.one.value


def _kernel_mass_cases(ctx, n_max):
    for n in range(1, n_max + 1):
        spec = OperatorSpec(n, ctx)
        for xf in (Fraction(1, 3), Fraction(4, 7)):
            x = ctx.scalar(xf)
            lead = ctx.q_int(n + 1).value
            terms = (lead * ctx.q_power(-k).value * kernel_mass(spec, k).value
                     * bernstein_basis(spec, k, x).value for k in range(n + 1))
            yield f"n={n} q={ctx.q} x={xf}", sum(terms) == ctx.one.value


def _normalization_cases(ctx, n_max):
    one = Polynomial.one(ctx.backend)
    for n in range(1, n_max + 1):
        yield f"n={n} q={ctx.q}", durrmeyer_apply_poly(OperatorSpec(n, ctx), one) == one


def _central_root_cases(ctx):
    for m in range(1, 5):
        form = central_factor_expand(m, ctx)
        for xf in (Fraction(1, 3), Fraction(5, 8)):
            x = ctx.scalar(xf)
            for s in range(m):
                t = ctx.q_power(s) * x
                value = sum((c * t ** j * x ** (m - j) for j, c in enumerate(form)), ctx.zero)
                yield f"m={m} s={s} q={ctx.q}", value.is_zero


def _first_central_cases(ctx, n_max):
    minus_x = Polynomial((ctx.zero, -ctx.one), ctx.backend)
    for n in range(1, n_max + 1):
        expected = raw_moment_brute(n, 1, ctx) + minus_x
        yield f"n={n} q={ctx.q}", central_moment(n, 1, ctx, "expansion") == expected


def _stancu_collapse_cases(ctx):
    zero = ctx.zero
    for n in range(1, 5):
        for m in range(7):
            yield f"n={n} m={m} q={ctx.q}", (stancu_moment(n, m, ctx, zero, zero)
                                             == raw_moment_brute(n, m, ctx))


def _q_taylor_cases(ctx, rng):
    for _ in range(16):
        coeffs = [Scalar.exact(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        f = Polynomial(coeffs, ctx.backend)
        x = ctx.scalar(Fraction(rng.randint(1, 15), 16))
        t = ctx.scalar(Fraction(rng.randint(0, 16), 16))
        if t == x or t == ctx.q * x:
            continue
        yield f"q={ctx.q} x={x} t={t}", q_taylor_remainder(f, x, t, ctx).is_zero


def _q_taylor_singular_cases(ctx):
    f = Polynomial.monomial(3, ctx.backend)
    x = ctx.scalar(Fraction(1, 2))
    try:
        q_taylor_remainder(f, x, ctx.q * x, ctx)
        raised = False
    except SingularRemainderError:
        raised = True
    yield f"q={ctx.q}: no error raised at t=q*x", raised


def build_report(n_max: int = 8) -> dict:
    """Run the whole invariant suite on the exact backend at the q of DEFAULT_Q_VALUES.

    Returns {"config", "rows", "verdict"}; the verdict ignores the
    informational transcription-audit rows.
    """
    ctxs = [QContext.exact(q) for q in DEFAULT_Q_VALUES]
    rng = random.Random(20240901)  # the q-Taylor cases draw from it in context order
    # entry name -> the (label, ok) cases for one context, in report order
    checks = [
        ("q-integer-identities", _q_integer_cases),
        ("q-pascal-recursions", _pascal_cases),
        ("jackson-monomial-beta", _jackson_beta_cases),
        ("q-beta-series", _beta_series_cases),
        ("partition-of-unity", lambda ctx: _partition_cases(ctx, min(n_max, 12))),
        ("kernel-mass-total", lambda ctx: _kernel_mass_cases(ctx, n_max)),
        ("normalization", lambda ctx: _normalization_cases(ctx, min(n_max + 4, 12))),
        ("raw-route-agreement", lambda ctx: (
            _agree(f"n={n} m={m} q={ctx.q}", raw_routes(n, m, ctx, 4))
            for n in range(1, n_max + 1) for m in range(5))),
        ("central-route-agreement", lambda ctx: (
            _agree(f"n={n} m={m} q={ctx.q}", central_routes(n, m, ctx))
            for n in range(1, min(n_max, 6) + 1) for m in range(1, 5))),
        ("central-root-check", _central_root_cases),
        ("central-first-identity", lambda ctx: _first_central_cases(ctx, n_max)),
        ("stancu-recursion-vs-direct", lambda ctx: (
            _agree(f"n={n} m={m} q={ctx.q} a={a} b={b}",
                   stancu_routes(n, m, ctx, ctx.scalar(a), ctx.scalar(b)))
            for a, b in STANCU_PARAMS for n in range(1, 5) for m in range(4))),
        ("stancu-zero-collapse", _stancu_collapse_cases),
        ("q-taylor-quadratic-zero", lambda ctx: _q_taylor_cases(ctx, rng)),
        ("q-taylor-singular-typed", _q_taylor_singular_cases),
    ]
    entries = [ReportRow.first_failure(name, (c for ctx in ctxs for c in cases(ctx)),
                                       mandatory=True)
               for name, cases in checks]
    entries += transcription_audit(ctxs, n_values=tuple(range(1, min(n_max, 6) + 1)))
    verdict = "pass" if all(
        e.status == "pass" for e in entries if e.mandatory
    ) else "fail"
    return {
        "config": {
            "n_max": n_max,
            "q_values": [str(q) for q in DEFAULT_Q_VALUES],
            "backend": Backend.EXACT.value,
        },
        "rows": [e.as_dict() for e in entries],
        "verdict": verdict,
    }
