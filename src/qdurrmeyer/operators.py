"""The q-Bernstein basis and the Durrmeyer-type operators.

Plain q-Durrmeyer:

    D_{n,q}(f; x) = [n+1]_q sum_{k=0}^n q^(-k) p_{nk}(q; x)
                    int_0^1 f(t) p_{nk}(q; qt) d_q t,
    p_{nk}(q; x)  = [n choose k]_q x^k (1-x)_q^(n-k).

The Stancu operator composes f with t -> ([n]_q t + alpha) / ([n]_q + beta)
for 0 <= alpha <= beta.  An `OperatorSpec` is the only plain/Stancu switch:
it describes the Stancu operator when it carries alpha and beta, the plain
one when it carries neither, and both apply functions read it.  The q = 1
operator, `classical_durrmeyer_apply(n, p)`, is evaluated through ordinary
Beta integrals; it exists as a q -> 1 cross-check target and accepts exact
polynomials only.

Since p_{nk}(q; qt) carries a factor q^k, the q^(-k) weight is folded
against it before anything is evaluated; no negative powers of q are ever
formed.  Exact polynomial images are exact, so the identity checks in the
test-suite can demand exact equality.  The kernel sum forms no q-factorial
(see `durrmeyer_apply_poly`): a degree-m image takes O(m^2) products of
q-integers, and its x^(m+1) coefficient must cancel and is checked.
`bernstein_basis`, `kernel_mass` and `qcore.q_beta` keep the q-factorial
forms, which `verify` checks and the test-suite compares with the kernel sum.

Black-box f takes one Jackson series per kernel index k on raw floats (see
`FunctionSpec.float_fn`); those integrals do not depend on x and are memoized
on the context, so an x grid shares them.  A Stancu spec composes a polynomial
with the affine map before the kernel sum, and a black-box f is read at the mapped point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import BackendMismatchError, DomainError, JacksonTruncationError
from .polyalg import Polynomial
from .qcore import Backend, FunctionSpec, QContext, Scalar, _memo_on_context, jackson_series, q_beta

__all__ = [
    "OperatorSpec",
    "check_stancu_parameters",
    "bernstein_basis",
    "kernel_mass",
    "durrmeyer_apply_poly",
    "durrmeyer_apply_fn",
    "classical_durrmeyer_apply",
]


def check_stancu_parameters(alpha: Scalar | None, beta: Scalar | None, backend: Backend) -> None:
    """Require alpha and beta both or neither; given, on `backend` with 0 <= alpha <= beta."""
    if (alpha is None) != (beta is None):
        raise DomainError("stancu parameters alpha and beta come together")
    if alpha is None:
        return
    if alpha.backend is not backend or beta.backend is not backend:
        raise BackendMismatchError("alpha/beta backend must match the context")
    if not (0 <= alpha.value and alpha.value <= beta.value):
        raise DomainError("stancu parameters need 0 <= alpha <= beta")


@dataclass(frozen=True)
class OperatorSpec:
    """Degree n and deformation context; alpha and beta, if given, make it Stancu."""

    n: int
    ctx: QContext
    alpha: Scalar | None = None
    beta: Scalar | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("operator degree n must be >= 1")
        check_stancu_parameters(self.alpha, self.beta, self.ctx.backend)


def _check_point(x: Scalar, ctx: QContext):
    if x.backend is not ctx.backend:
        raise BackendMismatchError("evaluation point backend differs from context")
    if not (0 <= x.value <= 1):
        raise DomainError(f"x must lie in [0, 1], got {x}")


def bernstein_basis(spec: OperatorSpec, k: int, x: Scalar) -> Scalar:
    """p_{nk}(q; x), nonnegative on [0, 1].

    In the integer view of `Scalar.as_ratio`, q = a/d, x = u/v, [n choose k]_q = b1/b2:
    b1 u^k prod_{s<n-k} (d^s v - a^s u) / (b2 v^n d^C(n-k, 2)), one Fraction when
    exact; on float d = v = b2 = 1, so the division is by 1.
    """
    n, ctx = spec.n, spec.ctx
    if not 0 <= k <= n:
        raise DomainError(f"basis index needs 0 <= k <= n, got k={k} n={n}")
    _check_point(x, ctx)
    a, d = ctx.q.as_ratio()
    u, v = x.as_ratio()
    b1, b2 = ctx.q_binom(n, k).as_ratio()
    num, a_s, d_s = b1 * u ** k, 1, 1
    for _ in range(n - k):
        num, a_s, d_s = num * (d_s * v - a_s * u), a_s * a, d_s * d
    return Scalar.from_ratio(num, b2 * v ** n * d ** math.comb(n - k, 2), ctx.backend)


def kernel_mass(spec: OperatorSpec, k: int) -> Scalar:
    """int_0^1 p_{nk}(q; qt) d_q t, which collapses to q^k / [n+1]_q."""
    n, ctx = spec.n, spec.ctx
    if not 0 <= k <= n:
        raise DomainError(f"kernel index needs 0 <= k <= n, got k={k} n={n}")
    return ctx.q_binom(n, k) * ctx.q_power(k) * q_beta(k + 1, n - k + 1, ctx)


def _kernel_weight(k: int, n: int, weights, tails, s, d):
    """d^(k(k-1)/2) L T W_k, W_k = sum_m p_m prod_{i<=m} [k+i]_q / [n+i+1]_q.

    W_k = [n+1]_q [n choose k]_q sum_m p_m B_q(k+m+1, n-k+1).  weights[m] = L p_m,
    tails[m] = S_{n+m+2} ... S_{n+deg+1}, T = tails[0], and every power of d
    goes to the numerator: [k+i]_q / [n+i+1]_q = S_{k+i} d^(n-k+1) / S_{n+i+1}.
    """
    acc, rising, lift = 0, 1, d ** (n - k + 1)
    for m, w in enumerate(weights):
        if m:
            rising *= s(k + m) * lift
        if w:
            acc += w * rising * tails[m]
    return acc * d ** (k * (k - 1) // 2)


def durrmeyer_apply_poly(spec: OperatorSpec, p: Polynomial) -> Polynomial:
    """Exact image of a polynomial under the operator of `spec`, as a polynomial in x.

    A Stancu spec first composes p with the affine map.  By Gauss's expansion
    of (1-x)_q^(n-k) and [n choose k]_q [n-k choose i]_q = [n choose k+i]_q
    [k+i choose i]_q, x^j has [n choose j]_q sum_i (-1)^i q^(i(i-1)/2)
    [j choose i]_q W_{j-i}, W from `_kernel_weight`, formed for j <= top + 1,
    top = min(deg p, n), in the integer view of `Scalar.as_ratio` (floats read
    S_k = [k]_q and d = 1) with one division per coefficient.  x^(top+1) must
    cancel: exact residue raises ArithmeticError, float is dropped.
    """
    n, ctx = spec.n, spec.ctx
    if p.backend is not ctx.backend:
        raise BackendMismatchError("polynomial backend differs from context")
    if spec.alpha is not None:
        qn = ctx.q_int(n)
        denom = qn + spec.beta
        p = p.compose_affine(qn / denom, spec.alpha / denom)
    if p.is_zero:
        return Polynomial.zero(ctx.backend)
    a, d = ctx.q.as_ratio()
    s = ctx.q_int_numerator
    # exact q-binomials stay ints, so they divide without remainder
    ratio = operator.floordiv if ctx.backend is Backend.EXACT else operator.truediv
    ratios = [c.as_ratio() for c in p.coeffs]
    lcm = math.lcm(*(den for _, den in ratios))
    weights = [num * (lcm // den) for num, den in ratios]
    tails = [1] * len(weights)
    for m in range(len(weights) - 2, -1, -1):
        tails[m] = tails[m + 1] * s(n + m + 2)
    top = min(p.degree, n)
    w = [_kernel_weight(k, n, weights, tails, s, d) for k in range(min(top + 1, n) + 1)]
    out, binom_n = [], 1
    for j in range(len(w)):
        if j:  # [n choose j]_q d^(j(n-j)), then [j choose i]_q d^(i(j-i))
            binom_n = ratio(binom_n * s(n - j + 1), s(j))
        inner, binom_j = 0, 1
        for i in range(j + 1):
            if i:
                binom_j = ratio(binom_j * s(j - i + 1), s(i))
            term = a ** (i * (i - 1) // 2) * binom_j * w[j - i]
            inner += -term if i % 2 else term
        den = d ** (j * (n - j) + j * (j - 1) // 2) * lcm * tails[0]
        out.append(Scalar.from_ratio(binom_n * inner, den, ctx.backend))
    if len(out) > top + 1:
        residue = out.pop()
        if ctx.backend is Backend.EXACT and not residue.is_zero:
            raise ArithmeticError(
                f"kernel sum left x^{top + 1} coefficient {residue} at n={n}; it must cancel"
            )
    return Polynomial(out, ctx.backend)


@_memo_on_context
def _kernel_integral(ctx: QContext, n: int, k: int, f: FunctionSpec, alpha, beta, tol, max_terms):
    """int_0^1 f(t) t^k (1-qt)_q^(n-k) d_q t, one Jackson series; f at the Stancu point if given.

    Summed on raw floats and independent of x, so memoized on ctx; a truncation is returned as
    its error's (message, last_term, terms), for the caller to raise.
    """
    one = ctx.one.value
    pows = [ctx.q_power(s).value for s in range(1, n - k + 1)]
    fn = raw = f.float_fn()
    if alpha is not None:
        qn, shift, denom = ctx.q_int(n).value, alpha.value, (ctx.q_int(n) + beta).value

        def fn(t: float) -> float:
            # with alpha <= beta this rounds to at most 1; the form a t + b can exceed 1 at t = 1
            return raw((qn * t + shift) / denom)

    def integrand(t: float) -> float:
        # f(t) * t^k * (1-qt)_q^(n-k); the q^k/q^(-k) pair is folded away
        out = fn(t) * t ** k
        for p in pows:
            out = out * (one - p * t)
        return out

    try:
        return jackson_series(integrand, ctx, tol=tol, max_terms=max_terms)
    except JacksonTruncationError as exc:
        return f"{exc} (while integrating kernel index k={k})", exc.last_term, exc.terms


def durrmeyer_apply_fn(
    spec: OperatorSpec,
    f: FunctionSpec | Polynomial,
    x: Scalar,
    tol=None,
    max_terms: int | None = None,
) -> Scalar:
    """Image of f at x; a Polynomial takes the exact path of `durrmeyer_apply_poly`.

    A black-box f takes the kernel sum with one Jackson series per index k, float only.  A
    Stancu spec evaluates it at ([n]_q t + alpha) / ([n]_q + beta); the plain one
    evaluates f at t itself, since (q_n t + 0)/(q_n + 0) is not always t in floats.
    """
    _check_point(x, spec.ctx)
    if isinstance(f, Polynomial):
        return durrmeyer_apply_poly(spec, f).eval(x)
    n, ctx = spec.n, spec.ctx
    lead = ctx.q_int(n + 1)
    total = ctx.zero
    for k in range(n + 1):
        base = bernstein_basis(spec, k, x)
        if base.is_zero:
            continue
        integral = _kernel_integral(ctx, n, k, f, spec.alpha, spec.beta, tol, max_terms)
        if isinstance(integral, tuple):  # a memoized truncation, raised afresh for each x
            raise JacksonTruncationError(*integral, basis_index=k)
        total = total + lead * base * ctx.q_binom(n, k) * integral
    return total


def classical_durrmeyer_apply(n: int, p: Polynomial) -> Polynomial:
    """The q = 1 operator of degree n via ordinary Beta integrals, exact backend only.

    int_0^1 t^a (1-t)^b dt = a! b! / (a+b+1)!
    """
    if n < 1:
        raise DomainError("operator degree n must be >= 1")
    if p.backend is not Backend.EXACT:
        raise BackendMismatchError("the classical cross-check path is exact-only")
    one_minus_x = Polynomial.from_fractions([1, -1])
    out = Polynomial.zero(Backend.EXACT)
    for k in range(n + 1):
        inner = Fraction(0)
        for m, cm in enumerate(p.coeffs):
            if cm.is_zero:
                continue
            inner += cm.value * Fraction(
                math.factorial(k + m) * math.factorial(n - k),
                math.factorial(n + m + 1),
            )
        if inner == 0:
            continue
        # both binomials of basis and kernel are identical at q = 1
        weight = Scalar.exact((n + 1) * math.comb(n, k) ** 2 * inner)
        basis = Polynomial.monomial(k, Backend.EXACT)
        for _ in range(n - k):
            basis = basis * one_minus_x
        out = out + basis.scale(weight)
    return out
