"""Numerical verification of the Voronovskaja-type limits.

For a sequence q_n -> 1 the scaled deviation

    [n]_{q_n} ( D_{n,q_n}(f; x) - f(x) )

is tabulated against its second-order limit target, with classical
derivatives: (1+alpha-(2+beta)x) f'(x) + x(1-x) f''(x) for the Stancu
operator, and the plain operator is its case alpha = beta = 0.  The
operator is the Stancu one when alpha and beta are given, and they come
both or neither; each row's operator is one `OperatorSpec`.  Every f is a
`Polynomial`, whose images and derivatives are exact, or a black-box
`FunctionSpec`, whose images go through Jackson series.

A caution that the tables make visible: those targets are the limits only
when q_n^n -> 1 (for example q_n = 1 - 1/n^2).  Along q_n = 1 - 1/n one
has q_n^n -> 1/e and the scaled deviation converges instead to a limit
with (1 + lim q_n^n) x in place of 2x in the first-order coefficient.
Each `QSequence` declares that constant as `a`, so tables can be read either way.

The q-Taylor remainder theta_q(x; t) normalizes the residue of the
second-order q-Taylor expansion by (t-x)(t-qx); it vanishes identically
for quadratics and on the diagonal t = x, and is singular at t = qx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import BackendMismatchError, DomainError, SingularRemainderError
from .moments import central_moment, scaled_deviation_at
from .operators import OperatorSpec, check_stancu_parameters, durrmeyer_apply_fn
from .polyalg import Polynomial
from .qcore import Backend, FunctionSpec, QContext, Scalar, q_derivative

__all__ = [
    "QSequence",
    "ConvergenceRow",
    "voronovskaja_lhs",
    "voronovskaja_rhs",
    "convergence_table",
    "convergence_grid",
    "q_taylor_remainder",
    "scaled_central_moment_at",
    "decay_slope",
]

@dataclass(frozen=True)
class QSequence:
    """A declared sequence q_n -> 1.

    `exact` maps n to q_n as a Fraction, or is None when q_n is irrational;
    `floating` maps n to the double q_n.  `a` is lim q_n^n, the constant in the
    first-order coefficient of the limit.
    """

    label: str
    exact: Callable[[int], Fraction] | None
    floating: Callable[[int], float]
    a: float

    @classmethod
    def one_minus_inv_n(cls) -> "QSequence":
        return cls("one-minus-inv-n", lambda n: Fraction(n - 1, n), lambda n: 1.0 - 1.0 / n,
                   math.exp(-1))

    @classmethod
    def one_minus_inv_sqrt_n(cls) -> "QSequence":
        return cls("one-minus-inv-sqrt-n", None, lambda n: 1.0 - 1.0 / math.sqrt(n), 0)

    @classmethod
    def power_decay(cls, p: int) -> "QSequence":
        """q_n = 1 - n^(-p); p >= 2 gives q_n^n -> 1, exact on both backends."""
        if p < 1:
            raise DomainError("power_decay needs p >= 1")
        return cls(f"one-minus-inv-n^{p}", lambda n: Fraction(n ** p - 1, n ** p),
                   lambda n: 1.0 - float(n) ** -p, 1 if p >= 2 else math.exp(-1))

    def value(self, n: int, backend: Backend = Backend.EXACT) -> Scalar:
        if n < 2:
            raise DomainError("q sequences need n >= 2 to satisfy 0 < q_n < 1")
        if backend is Backend.EXACT and self.exact is None:
            raise BackendMismatchError(f"q_n of {self.label} is irrational; use the float backend")
        q = Scalar((self.floating if backend is Backend.FLOAT else self.exact)(n), backend)
        if not (0 < q.value < 1):
            raise DomainError(f"q sequence left (0, 1) at n={n}: {q}")
        return q


@dataclass
class ConvergenceRow:
    """One table row; abs_err is |lhs - rhs_limit|, formed once at construction."""

    n: int
    q_n: Scalar
    lhs: Scalar | None
    rhs_limit: Scalar | None
    error: str | None = None
    err_decreased: bool | None = None
    abs_err: Scalar | None = field(init=False)

    def __post_init__(self):
        missing = self.lhs is None or self.rhs_limit is None
        self.abs_err = None if missing else abs(self.lhs - self.rhs_limit)


def _err_not_above(a: Scalar, b: Scalar) -> bool:
    """a <= b for two abs_err values (the error did not grow), decided on correctly rounded floats.

    Rounding is monotone, so floats that differ order the values as the exact
    compare would, without cross-multiplying two large fractions; a float tie
    or a value past the float range falls back to the exact `<=`.  On the float
    backend this is the bare `<=`, NaN and inf included.
    """
    try:
        fa, fb = float(a), float(b)
    except OverflowError:
        return a <= b
    return fa < fb if fa != fb else a <= b


def _validate_interior(x: Scalar):
    if not (0 < x.value < 1):
        raise DomainError("the asymptotic statements hold for x in (0, 1)")


def _scaled_deviation(
    f: FunctionSpec | Polynomial, x: Scalar, spec: OperatorSpec, tol, max_terms
) -> Scalar:
    """[n]_q (image of f at x under `spec`, minus f(x))."""
    if isinstance(f, Polynomial):
        return scaled_deviation_at(spec, f, x)
    image = durrmeyer_apply_fn(spec, f, x, tol, max_terms)
    return spec.ctx.q_int(spec.n) * (image - f.evaluate(x))


def voronovskaja_lhs(
    f: FunctionSpec | Polynomial,
    x: Scalar,
    n: int,
    q: Scalar,
    alpha: Scalar | None = None,
    beta: Scalar | None = None,
) -> Scalar:
    """[n]_q (operator image of f at x, minus f(x)), on a fresh context.

    Exact for a Polynomial f on the exact backend at any n: its images go
    through the closed moment tables, which reach n = 1024 and beyond.  A
    black-box FunctionSpec takes the Jackson kernel path at the default tol and max_terms:
    each of its n + 1 series needs about n^p ln(1/tol) nodes at q = 1 - n^(-p), so
    max_terms caps it near n^p = 150, and its stopping rule bounds no tail.
    """
    _validate_interior(x)
    return _scaled_deviation(f, x, OperatorSpec(n, QContext(q), alpha, beta), None, None)


def voronovskaja_rhs(
    f: FunctionSpec | Polynomial,
    x: Scalar,
    alpha: Scalar | None = None,
    beta: Scalar | None = None,
) -> Scalar:
    """Second-order limit target for the scaled deviation, with classical derivatives.

    A Polynomial takes `Polynomial.derivative`, a builtin its own derivatives.
    """
    _validate_interior(x)
    check_stancu_parameters(alpha, beta, x.backend)
    if alpha is None:
        alpha = beta = 0
    if isinstance(f, Polynomial):
        d1 = f.derivative().eval(x)
        d2 = f.derivative().derivative().eval(x)
    else:
        d1 = f.classical_derivative(x, 1)
        d2 = f.classical_derivative(x, 2)
    one = Scalar.one(x.backend)
    return (one + alpha - (2 + beta) * x) * d1 + x * (one - x) * d2


def convergence_grid(
    f: FunctionSpec | Polynomial,
    xs: Sequence[Scalar],
    seq: QSequence,
    n_list: Sequence[int],
    alpha: Scalar | None = None,
    beta: Scalar | None = None,
    tol=None,
    max_terms: int | None = None,
) -> list[list[ConvergenceRow]]:
    """One convergence table per x in xs, evaluated n-major.

    Each n builds one QContext for every x, so the memoized black-box kernel
    integrals and moment tables are shared across the grid.  Row failures
    are recorded on their row; err_decreased says abs_err did not grow from
    the row before for the same x (a tie counts as no growth).
    """
    if not xs:
        raise DomainError("convergence_grid needs at least one x")
    for x in xs:
        _validate_interior(x)
    if list(n_list) != sorted(set(n_list)):
        raise DomainError("n_list must be strictly increasing")
    rhs = [voronovskaja_rhs(f, x, alpha, beta) for x in xs]
    tables: list[list[ConvergenceRow]] = [[] for _ in xs]
    prev_err = [None] * len(xs)
    for n in n_list:
        q_n = seq.value(n, xs[0].backend)
        spec = OperatorSpec(n, QContext(q_n), alpha, beta)
        for i, x in enumerate(xs):
            try:
                lhs = _scaled_deviation(f, x, spec, tol, max_terms)
            except (ArithmeticError, DomainError) as exc:
                tables[i].append(ConvergenceRow(n, q_n, None, None, error=str(exc)))
                prev_err[i] = None
                continue
            row = ConvergenceRow(n, q_n, lhs, rhs[i])
            if prev_err[i] is not None:
                row.err_decreased = _err_not_above(row.abs_err, prev_err[i])
            prev_err[i] = row.abs_err
            tables[i].append(row)
    return tables


def convergence_table(
    f: FunctionSpec | Polynomial,
    x: Scalar,
    seq: QSequence,
    n_list: Sequence[int],
    alpha: Scalar | None = None,
    beta: Scalar | None = None,
) -> list[ConvergenceRow]:
    """One ConvergenceRow per n at a single x; see convergence_grid."""
    return convergence_grid(f, [x], seq, n_list, alpha, beta)[0]


# -- scaled central-moment limits ------------------------------------------------


def scaled_central_moment_at(n: int, m: int, q: Scalar, x: Scalar) -> Scalar:
    """[n]_q D_{n,q}((t-x)_q^m; x)."""
    ctx = QContext(q)
    return ctx.q_int(n) * central_moment(n, m, ctx, route="closed").eval(x)


def decay_slope(
    m: int,
    x: Scalar,
    seq: QSequence,
    n_list: Sequence[int],
) -> float:
    """Least-squares slope of log |D((t-x)_q^m; x)| against log [n]_q, on x's backend."""
    if len(n_list) < 2:
        raise DomainError("need at least two n values for a slope")
    if list(n_list) != sorted(set(n_list)):
        raise DomainError("n_list must be strictly increasing")
    xs, ys = [], []
    for n in n_list:
        ctx = QContext(seq.value(n, x.backend))
        value = central_moment(n, m, ctx, route="closed").eval(x)
        if value.is_zero:
            raise DomainError(f"central moment vanished at n={n}; slope undefined")
        xs.append(math.log(float(ctx.q_int(n))))
        ys.append(math.log(abs(float(value))))
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((a - mean_x) * (b - mean_y) for a, b in zip(xs, ys))
    den = sum((a - mean_x) ** 2 for a in xs)
    return num / den


# -- q-Taylor remainder -------------------------------------------------------------


def q_taylor_remainder(
    f: FunctionSpec | Polynomial, x: Scalar, t: Scalar, ctx: QContext
) -> Scalar:
    """theta_q(x; t), the normalized second-order q-Taylor residue.

    theta_q(x; t) = (f(t) - f(x) - D_q f(x)(t-x) - D_q^2 f(x)/[2]_q (t-x)_q^2)
                    / (t-x)_q^2,          (t-x)_q^2 = (t-x)(t-qx),

    with theta_q(x; x) = 0 by definition.  The point t = qx (for t != x)
    is a denominator root and raises SingularRemainderError.
    """
    _validate_interior(x)
    if not (0 <= t.value <= 1):
        raise DomainError("t must lie in [0, 1]")
    if t == x:
        return Scalar.zero(x.backend)
    t_minus_x = t - x
    t_minus_qx = t - ctx.q * x
    denom = t_minus_x * t_minus_qx
    if denom.is_zero:  # t = qx, or a float product that underflows to 0
        where = "t = q*x" if t_minus_qx.is_zero else "a (t-x)(t-qx) that underflows to 0"
        raise SingularRemainderError(f"theta_q is singular at {where} (t={t}, x={x}, q={ctx.q})")
    d1 = q_derivative(f, x, ctx, 1)
    d2 = q_derivative(f, x, ctx, 2)
    residue = (
        f(t)
        - f(x)
        - d1 * t_minus_x
        - d2 / ctx.q_int(2) * denom
    )
    return residue / denom
