"""The full invariant suite behind the `verify` CLI command.

Mandatory checks exercise identities the library must satisfy exactly:
q-integer recursions (exact `q_int` is a closed form, so [n+1]_q = [n]_q
+ q^n checks it against the additive definition), Pascal rules,
Jackson-vs-Beta agreement, partition of unity, kernel mass, agreement of each
route set of `moments` (raw, central, Stancu) with its reference, and the
q-Taylor remainder contracts.  The transcription audit entries are
informational: they compare the usually quoted closed forms against the
derivation-based routes and report each as match or mismatch-documented
without affecting the verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SingularRemainderError
from .asymptotics import q_taylor_remainder
from .moments import (
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

__all__ = ["VerifyEntry", "build_report", "DEFAULT_Q_VALUES"]

DEFAULT_Q_VALUES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))

_X_GRID_16 = [Fraction(i, 17) for i in range(1, 17)]


@dataclass(frozen=True)
class VerifyEntry:
    name: str
    status: str  # "pass" / "fail" for mandatory, "match" / "mismatch-documented" for audit
    mandatory: bool
    witness: str | None = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "status": self.status, "mandatory": self.mandatory}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _entry(name, failures, mandatory=True) -> VerifyEntry:
    if failures:
        return VerifyEntry(name, "fail", mandatory, failures[0])
    return VerifyEntry(name, "pass", mandatory)


def _check_q_integer_identities(ctxs) -> VerifyEntry:
    bad = []
    for ctx in ctxs:
        for n in range(65):
            lhs = ctx.q_int(n + 1)
            if lhs != ctx.q_int(n) + ctx.q_power(n) or lhs != ctx.one + ctx.q * ctx.q_int(n):
                bad.append(f"n={n} q={ctx.q}")
    return _entry("q-integer-identities", bad)


def _check_pascal(ctxs) -> VerifyEntry:
    bad = []
    for ctx in ctxs:
        for n in range(1, 21):
            for k in range(n + 1):
                b = ctx.q_binom(n, k)
                left = (ctx.q_binom(n - 1, k - 1) if k >= 1 else ctx.zero) + (
                    ctx.q_power(k) * ctx.q_binom(n - 1, k) if k <= n - 1 else ctx.zero
                )
                right = (
                    ctx.q_power(n - k) * ctx.q_binom(n - 1, k - 1) if k >= 1 else ctx.zero
                ) + (ctx.q_binom(n - 1, k) if k <= n - 1 else ctx.zero)
                if b != left or b != right:
                    bad.append(f"n={n} k={k} q={ctx.q}")
    return _entry("q-pascal-recursions", bad)


def _check_jackson_beta(ctxs) -> VerifyEntry:
    bad = []
    for ctx in ctxs:
        for m in range(9):
            j = jackson_integral(Polynomial.monomial(m, ctx.backend), ctx)
            if j != q_beta(m + 1, 1, ctx) or j != ctx.one / ctx.q_int(m + 1):
                bad.append(f"m={m} q={ctx.q}")
    return _entry("jackson-monomial-beta", bad)


def _check_beta_series(ctxs) -> VerifyEntry:
    # expand t^(a-1) (1-qt)_q^(b-1) as a polynomial, then integrate exactly
    bad = []
    for ctx in ctxs:
        products = [Polynomial.one(ctx.backend)]  # products[r] = (1-qt)_q^r
        for s in range(1, 19):
            products.append(products[-1] * Polynomial((ctx.one, -ctx.q_power(s)), ctx.backend))
        for a in range(1, 10):
            for b in range(1, 21 - a):
                poly = products[b - 1].shift_up(a - 1)
                integral = jackson_integral(poly, ctx)
                if integral != q_beta(a, b, ctx):
                    bad.append(f"a={a} b={b} q={ctx.q}")
    return _entry("q-beta-series", bad)


def _check_partition_of_unity(ctxs, n_max) -> VerifyEntry:
    bad = []
    for ctx in ctxs:
        for n in range(1, n_max + 1):
            spec = OperatorSpec(n, ctx)
            for xf in _X_GRID_16:
                x = ctx.scalar(xf)
                total = sum(bernstein_basis(spec, k, x).value for k in range(n + 1))
                if total != ctx.one.value:
                    bad.append(f"n={n} q={ctx.q} x={xf}")
    return _entry("partition-of-unity", bad)


def _check_kernel_mass(ctxs, n_max) -> VerifyEntry:
    bad = []
    for ctx in ctxs:
        for n in range(1, n_max + 1):
            spec = OperatorSpec(n, ctx)
            for xf in (Fraction(1, 3), Fraction(4, 7)):
                x = ctx.scalar(xf)
                lead = ctx.q_int(n + 1).value
                terms = (lead * ctx.q_power(-k).value * kernel_mass(spec, k).value
                         * bernstein_basis(spec, k, x).value for k in range(n + 1))
                if sum(terms) != ctx.one.value:
                    bad.append(f"n={n} q={ctx.q} x={xf}")
    return _entry("kernel-mass-total", bad)


def _check_normalization(ctxs, n_max) -> VerifyEntry:
    bad = []
    for ctx in ctxs:
        one = Polynomial.one(ctx.backend)
        for n in range(1, n_max + 1):
            if durrmeyer_apply_poly(OperatorSpec(n, ctx), one) != one:
                bad.append(f"n={n} q={ctx.q}")
    return _entry("normalization", bad)


def _check_routes(name, cases) -> VerifyEntry:
    """Fail a (label, (reference, routes)) case when any route differs from its reference."""
    bad = [label for label, (reference, routes) in cases
           if any(value != reference for _, value in routes)]
    return _entry(name, bad)


def _check_central_roots(ctxs) -> VerifyEntry:
    bad = []
    for ctx in ctxs:
        for m in range(1, 5):
            form = central_factor_expand(m, ctx)
            for xf in (Fraction(1, 3), Fraction(5, 8)):
                x = ctx.scalar(xf)
                for s in range(m):
                    t = ctx.q_power(s) * x
                    value = sum((c * t ** j * x ** (m - j) for j, c in enumerate(form)), ctx.zero)
                    if not value.is_zero:
                        bad.append(f"m={m} s={s} q={ctx.q}")
    return _entry("central-root-check", bad)


def _check_first_central_identity(ctxs, n_max) -> VerifyEntry:
    bad = []
    for ctx in ctxs:
        minus_x = Polynomial((ctx.zero, -ctx.one), ctx.backend)
        for n in range(1, n_max + 1):
            expected = raw_moment_brute(n, 1, ctx) + minus_x
            if central_moment(n, 1, ctx, "expansion") != expected:
                bad.append(f"n={n} q={ctx.q}")
    return _entry("central-first-identity", bad)


def _check_stancu_collapse(ctxs) -> VerifyEntry:
    bad = []
    for ctx in ctxs:
        zero = ctx.zero
        for n in range(1, 5):
            for m in range(7):
                if stancu_moment(n, m, ctx, zero, zero) != raw_moment_brute(n, m, ctx):
                    bad.append(f"n={n} m={m} q={ctx.q}")
    return _entry("stancu-zero-collapse", bad)


def _check_q_taylor(ctxs) -> VerifyEntry:
    rng = random.Random(20240901)
    bad = []
    for ctx in ctxs:
        for _ in range(16):
            coeffs = [Scalar.exact(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
            f = Polynomial(coeffs, ctx.backend)
            x = ctx.scalar(Fraction(rng.randint(1, 15), 16))
            t = ctx.scalar(Fraction(rng.randint(0, 16), 16))
            if t == x or t == ctx.q * x:
                continue
            if not q_taylor_remainder(f, x, t, ctx).is_zero:
                bad.append(f"q={ctx.q} x={x} t={t}")
    return _entry("q-taylor-quadratic-zero", bad)


def _check_q_taylor_singular(ctxs) -> VerifyEntry:
    bad = []
    for ctx in ctxs:
        f = Polynomial.monomial(3, ctx.backend)
        x = ctx.scalar(Fraction(1, 2))
        try:
            q_taylor_remainder(f, x, ctx.q * x, ctx)
            bad.append(f"q={ctx.q}: no error raised at t=q*x")
        except SingularRemainderError:
            pass
    return _entry("q-taylor-singular-typed", bad)


def build_report(n_max: int = 8, q_values: Sequence[Fraction] = DEFAULT_Q_VALUES) -> dict:
    """Run the whole invariant suite on the exact backend.

    Returns {"config", "rows", "verdict"}; the verdict ignores the
    informational transcription-audit rows.
    """
    ctxs = [QContext.exact(q) for q in q_values]
    entries = [
        _check_q_integer_identities(ctxs),
        _check_pascal(ctxs),
        _check_jackson_beta(ctxs),
        _check_beta_series(ctxs),
        _check_partition_of_unity(ctxs, min(n_max, 12)),
        _check_kernel_mass(ctxs, n_max),
        _check_normalization(ctxs, min(n_max + 4, 12)),
        _check_routes("raw-route-agreement", (
            (f"n={n} m={m} q={ctx.q}", raw_routes(n, m, ctx, 4))
            for ctx in ctxs for n in range(1, n_max + 1) for m in range(5))),
        _check_routes("central-route-agreement", (
            (f"n={n} m={m} q={ctx.q}", central_routes(n, m, ctx))
            for ctx in ctxs for n in range(1, min(n_max, 6) + 1) for m in range(1, 5))),
        _check_central_roots(ctxs),
        _check_first_central_identity(ctxs, n_max),
        _check_routes("stancu-recursion-vs-direct", (
            (f"n={n} m={m} q={ctx.q} a={a} b={b}",
             stancu_routes(n, m, ctx, ctx.scalar(a), ctx.scalar(b)))
            for ctx in ctxs for a, b in ((0, 0), (1, 2), (2, 5))
            for n in range(1, 5) for m in range(4))),
        _check_stancu_collapse(ctxs),
        _check_q_taylor(ctxs),
        _check_q_taylor_singular(ctxs),
    ]
    for audit in transcription_audit(ctxs, n_values=tuple(range(1, min(n_max, 6) + 1))):
        entries.append(VerifyEntry(audit.key, audit.status, False, audit.witness))
    verdict = "pass" if all(
        e.status == "pass" for e in entries if e.mandatory
    ) else "fail"
    return {
        "config": {
            "n_max": n_max,
            "q_values": [str(q) for q in q_values],
            "backend": Backend.EXACT.value,
        },
        "rows": [e.as_dict() for e in entries],
        "verdict": verdict,
    }
