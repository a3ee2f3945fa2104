"""Raw and central moments of the operators, via independent routes.

Routes for the raw moments D^q_{n,m}(x) = D_{n,q}(t^m; x):

  brute       kernel sum (the oracle) with its q-Beta weights and Gauss's
              expansion of (1-x)_q^N as products of at most m + 1
              q-integers, no q-factorial; it checks that the x^(m+1)
              coefficient cancels
  closed      closed forms for every m: the x^j coefficient is
              q^(j^2) [n]_q ... [n-j+1]_q c_{m,j}(q) / ([n+2]_q ... [n+m+1]_q)
              with integer q-polynomials c_{m,j} from the q-Lah recurrence
              (`_closed_row`), evaluated in the integer view q = a/d,
              [k]_q = S_k / d^(k-1) (ints when exact; floats with d = 1 on
              float); one division is made for each finished coefficient,
              or once for a `scaled_deviation_at` value [n]_q (image - p(x))
              at x = u/v
  recurrence  [n+m+2]_q M_{m+1} = ([m+1]_q + q^(m+1) x [n]_q) M_m
                                   + x(1-x) q^(m+1) D_q(M_m),
              from M_0 = 1 at every n >= 1, with no call to the other routes

Central moments contract the scalars e_j of (t-x)_q^m = prod_{s<m} (t - q^s x)
= sum_j e_j t^j x^(m-j) against raw moments in `polyalg.contract_form`: the
product expansion against brute moments, Gauss's q-binomial coefficients
against closed ones, and the binomials of (t-x)^m against Stancu ones.

`raw_routes`, `central_routes` and `stancu_routes` are each moment's one route
set: its routes in print order and the reference they must equal.  The CLI's
moment tables print them and `verify` checks them.

The closed tables are verified coefficientwise against the brute and
recurrence routes, and against a hand-derived m <= 4 table, in the
test-suite.  The
traditionally quoted tables contain several misprints (q-powers on the
x^2/x^3 terms of the t^2..t^4 moments, and sign/factor slips in the
central-moment statements).  Those quoted forms are kept, verbatim, in the
`stated_*` functions, and `transcription_audit` compares them against the
derivation-based routes, reporting "match" or "mismatch-documented" per
identity without failing any suite.  The audit is one table of (entry key,
lazy (label, stated, derived) pairs); each entry stops at its first
mismatch, which is its witness.  Its rows and `verify`'s mandatory checks
are `ReportRow`s, judged by the one first-failure rule
`ReportRow.first_failure`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BackendMismatchError, DomainError
from .operators import OperatorSpec, check_stancu_parameters, durrmeyer_apply_poly
from .polyalg import Polynomial, contract_form
from .qcore import QContext, Scalar, _memo_on_context

__all__ = [
    "ReportRow",
    "raw_moment_brute",
    "raw_moment_closed",
    "raw_moment_recurrence",
    "central_factor_expand",
    "central_identity_coefficients",
    "central_moment",
    "stancu_moment",
    "scaled_deviation_at",
    "stancu_central_moment",
    "raw_routes",
    "central_routes",
    "stancu_routes",
    "stated_raw_moment",
    "stated_central_moment",
    "stated_stancu_moment",
    "stated_stancu_central_moment",
    "transcription_audit",
]

ROUTE_CLOSED = "closed"
ROUTE_EXPANSION = "expansion"
# the (alpha, beta) pairs of the Stancu audit entries and of `verify`'s Stancu check
STANCU_PARAMS = ((0, 0), (1, 2), (2, 5))


def _validate_nm(n: int, m: int):
    if n < 1:
        raise DomainError("moment degree n must be >= 1")
    if m < 0:
        raise DomainError("moment order m must be >= 0")


def _q_falling(n: int, j: int, ctx: QContext) -> Scalar:
    """[n]_q [n-1]_q ... [n-j+1]_q for the quoted forms; zero once the index reaches 0."""
    out = ctx.one
    for i in range(j):
        if n - i <= 0:
            return ctx.zero
        out = out * ctx.q_int(n - i)
    return out


@_memo_on_context
def _q_weights(ctx: QContext, coeffs: tuple[int, ...]) -> Scalar:
    """sum_i coeffs[i] q^i as a Scalar, for the quoted forms."""
    out = ctx.zero
    for i, c in enumerate(coeffs):
        if c:
            out = out + ctx.q_power(i) * c
    return out


# -- raw moments ---------------------------------------------------------------


@_memo_on_context
def raw_moment_brute(n: int, m: int, ctx: QContext) -> Polynomial:
    """Direct kernel sum, the q-Beta weights as q-integer products; oracle for all routes."""
    _validate_nm(n, m)
    spec = OperatorSpec(n, ctx)
    return durrmeyer_apply_poly(spec, Polynomial.monomial(m, ctx.backend))


# c_{m,j}(q) as integer coefficient lists in q, constant term first: the x^j
# coefficient of D(t^m; x) is
#     q^(j^2) [n]_q [n-1]_q ... [n-j+1]_q c_{m,j}(q) / ([n+2]_q ... [n+m+1]_q).
# A row depends on m alone, so rows are cached here for every context.
_CLOSED_ROWS = {0: ((1,),)}


def _closed_row(m: int) -> tuple[tuple[int, ...], ...]:
    """(c_{m,0}, ..., c_{m,m}) by the q-Lah recurrence, built on row m - 1.

    c_{0,0} = 1, c_{m,j} = [m+j]_q c_{m-1,j} + q^(m-j) c_{m-1,j-1}: the kernel sum
    weighs p_{nk} by [k+1]_q ... [k+m]_q, sum_k p_{nk}(x) [k]_q ... [k-j+1]_q =
    [n]_q ... [n-j+1]_q x^j, and [k+m]_q = [m]_q + q^m [k]_q steps m.  The quoted
    forms are `stated_raw_moment`.
    """
    for k in range(len(_CLOSED_ROWS), m + 1):
        prev, row = _CLOSED_ROWS[k - 1] + ((),), []  # c_{k-1,k} = c_{k-1,-1} = 0
        for j in range(k + 1):
            head, tail = prev[j], (0,) * (k - j) + prev[j - 1]
            # head times [k+j]_q: differences of its prefix sums k+j apart
            sums = list(itertools.accumulate(head + (0,) * (k + j - 1))) if head else []
            out = [t - (sums[i - k - j] if i >= k + j else 0) for i, t in enumerate(sums)]
            out += [0] * (len(tail) - len(out))
            for i, c in enumerate(tail):
                out[i] += c
            row.append(tuple(out))
        _CLOSED_ROWS.setdefault(k, tuple(row))
    return _CLOSED_ROWS[m]


@_memo_on_context
def _closed_numerators(n: int, m: int, ctx: QContext) -> tuple:
    """N_j with x^j coefficient N_j / (S_{n+2} ... S_{n+m+1}) in D(t^m; x).

    In the integer view q = a/d, [k]_q = S_k / d^(k-1) (`QContext.q_int_numerator`);
    all powers of d go to the numerators, where their exponent is >= 0 for
    every n >= 1.  Exact: ints.  Float: d = 1 and S_k = [k]_q, so floats.
    """
    a, d = ctx.q.as_ratio()
    s = ctx.q_int_numerator
    d_den = sum(n + i - 1 for i in range(2, m + 2))
    out, falling, d_falling = [], 1, 0
    for j, c in enumerate(_closed_row(m)):
        if j and falling:
            falling *= s(n - j + 1)  # zero once the index reaches 0
            d_falling += n - j
        if not falling:
            out.append(0)
            continue
        deg_c = len(c) - 1
        c_at_q = sum(ci * a ** i * d ** (deg_c - i) for i, ci in enumerate(c))
        out.append(a ** (j * j) * falling * c_at_q * d ** (d_den - j * j - d_falling - deg_c))
    return tuple(out)


@_memo_on_context
def raw_moment_closed(n: int, m: int, ctx: QContext) -> Polynomial:
    """Closed-form moment tables for every m, from the q-Lah rows of `_closed_row`.

    Relative to the usually quoted m <= 4 tables the x^2 and higher
    coefficients carry different q-powers (q^4, q^9, q^16 leading powers and
    reworked interior q-polynomials); see `transcription_audit` for the
    comparison against the quoted forms.  Each coefficient is one numerator of
    `_closed_numerators` over one shared denominator, on both backends.
    """
    _validate_nm(n, m)
    den = math.prod(ctx.q_int_numerator(n + i) for i in range(2, m + 2))
    coeffs = [Scalar.from_ratio(c, den, ctx.backend) for c in _closed_numerators(n, m, ctx)]
    return Polynomial(coeffs, ctx.backend)


def scaled_deviation_at(spec: OperatorSpec, f: Polynomial, x: Scalar) -> Scalar:
    """[n]_q (image of f at x, minus f(x)) under `spec`.

    One division at the end, from the closed tables in the integer view of
    `Scalar.as_ratio` (d = v = 1 on float).  For x = u/v and degree M the moments
    share the denominator S_{n+2} ... S_{n+M+1} v^M.  With [n]_q = S_n / g,
    g = d^(n-1), alpha = a1/a2 and beta = b1/b2 the Stancu point
    ([n]_q t + alpha)/([n]_q + beta) is (A t + B)/U, A = a2 b2 S_n, B = a1 b2 g,
    U = a2 (b2 S_n + b1 g), so f's integer weights w_m compose to
    H_j = A^j sum_{m>=j} C(m, j) w_m B^(m-j) U^(M-m) over U^M; a plain spec is U = 1, H = w.
    """
    n, ctx, coeffs = spec.n, spec.ctx, f.coeffs
    if f.backend is not ctx.backend or x.backend is not ctx.backend:
        raise BackendMismatchError("point and polynomial must share the context's backend")
    deg = max(f.degree, 0)  # a Polynomial's top coefficient is never zero
    u, v = x.as_ratio()
    s = ctx.q_int_numerator
    sn, g = s(n), ctx.q.as_ratio()[1] ** (n - 1)
    # tails[m] = S_{n+m+2} ... S_{n+deg+1}; tails[0] is the shared denominator
    tails = [1] * (deg + 1)
    for m in range(deg - 1, -1, -1):
        tails[m] = tails[m + 1] * s(n + m + 2)

    def plain_at(m: int):
        acc = 0
        for j, c in reversed(list(enumerate(_closed_numerators(n, m, ctx)))):
            acc = acc * u + c * v ** (m - j)
        return acc * tails[m] * v ** (deg - m)

    ratios = [c.as_ratio() for c in coeffs]
    lcm = math.lcm(*(den for _, den in ratios))
    weights = [num * (lcm // den) for num, den in ratios]
    composed, common = weights, tails[0]
    if spec.alpha is not None:
        (a1, a2), (b1, b2) = spec.alpha.as_ratio(), spec.beta.as_ratio()
        scale, shift, unit = a2 * b2 * sn, a1 * b2 * g, a2 * (b2 * sn + b1 * g)
        try:  # a float ** past the double range raises
            composed = [scale ** j * sum(math.comb(m, j) * w * shift ** (m - j) * unit ** (deg - m)
                                         for m, w in enumerate(weights[j:], j) if w)
                        for j in range(len(weights))]
            common *= unit ** deg
        except OverflowError:
            raise DomainError(
                "float Stancu point leaves the float range; use the exact backend"
            ) from None
    image = sum(h * plain_at(j) for j, h in enumerate(composed) if h)
    p_at_x = sum(w * u ** m * v ** (deg - m) for m, w in enumerate(weights))
    return Scalar.from_ratio(sn * (image - p_at_x * common), g * lcm * common * v ** deg,
                             ctx.backend)


def _recurrence_step(n: int, m: int, current: Polynomial, ctx: QContext) -> Polynomial:
    qm1 = ctx.q_power(m + 1)
    linear = Polynomial((ctx.q_int(m + 1), qm1 * ctx.q_int(n)), ctx.backend)
    x_one_minus_x = Polynomial((ctx.zero, ctx.one, -ctx.one), ctx.backend)
    numerator = linear * current + x_one_minus_x.scale(qm1) * current.q_derivative(ctx)
    # the image of t^(m+1) has degree <= min(m+1, n); the terms above cancel
    # identically, so drop their float-roundoff residue
    out = numerator.scale(ctx.one / ctx.q_int(n + m + 2))
    top = min(m + 1, n)
    if out.degree > top:
        out = Polynomial(out.coeffs[: top + 1], ctx.backend)
    return out


@_memo_on_context
def raw_moment_recurrence(n: int, m_max: int, ctx: QContext) -> tuple[Polynomial, ...]:
    """Values of the recurrence route, one polynomial per m in 0..m_max."""
    _validate_nm(n, m_max)
    values = [Polynomial.one(ctx.backend)]
    for m in range(m_max):
        values.append(_recurrence_step(n, m, values[-1], ctx))
    return tuple(values)


# -- central moments ------------------------------------------------------------


@_memo_on_context
def central_factor_expand(m: int, ctx: QContext) -> tuple[Scalar, ...]:
    """(e_0, ..., e_m) with (t-x)_q^m = prod_{s<m} (t - q^s x) = sum_j e_j t^j x^(m-j).

    Multiplied out one factor at a time, e'_j = e_{j-1} - q^s e_j, with no
    q-binomial: the route independent of `central_identity_coefficients`.
    """
    if m < 0:
        raise DomainError("central factor order must be >= 0")
    coeffs = (ctx.one,)
    for s in range(m):
        qs = ctx.q_power(s)
        shifted = [c * qs for c in coeffs] + [ctx.zero]
        coeffs = tuple(a - b for a, b in zip((ctx.zero,) + coeffs, shifted))
    return coeffs


def central_identity_coefficients(m: int, ctx: QContext) -> tuple[Scalar, ...]:
    """Expansion identity coefficients for (t-x)_q^m, by Gauss's q-binomial theorem.

    Entry j is e_j = (-1)^(m-j) q^((m-j)(m-j-1)/2) [m choose j]_q, with the
    t^j coefficient equal to e_j x^(m-j), for every m >= 0.  These equal the
    product expansion exactly (the test-suite asserts it).  The usually
    quoted m = 3 identity misprints the t coefficient as q [2]_q where the
    product gives q [3]_q; see `stated_central_factor`.
    """
    if m < 0:
        raise DomainError("central factor order must be >= 0")
    return tuple(
        ctx.q_power((m - j) * (m - j - 1) // 2) * ctx.q_binom(m, j) * (-1) ** (m - j)
        for j in range(m + 1)
    )


def stated_central_factor(m: int, ctx: QContext) -> tuple[Scalar, ...]:
    """The quoted (t-x)_q^m identity coefficients, verbatim, for the audit."""
    coeffs = central_identity_coefficients(m, ctx)
    if m == 3:
        coeffs = coeffs[:1] + (ctx.q * ctx.q_int(2),) + coeffs[2:]
    return coeffs


def central_moment(n: int, m: int, ctx: QContext, route: str = ROUTE_EXPANSION) -> Polynomial:
    """D_{n,q}((t-x)_q^m; x) as a polynomial in x.

    The expansion route contracts the product expansion against brute raw
    moments; the closed route contracts Gauss's identity coefficients against
    the closed raw-moment tables.  The two agree exactly for every m.
    """
    _validate_nm(n, m)
    if m < 1:
        raise DomainError("central moments start at m = 1")
    if route == ROUTE_EXPANSION:
        return _central_expansion(n, m, ctx)
    if route == ROUTE_CLOSED:
        images = [raw_moment_closed(n, j, ctx) for j in range(m + 1)]
        return contract_form(central_identity_coefficients(m, ctx), images)
    raise DomainError(f"unknown central-moment route {route!r}")


@_memo_on_context
def _central_expansion(n: int, m: int, ctx: QContext) -> Polynomial:
    """The expansion route of `central_moment`, for validated arguments."""
    images = [raw_moment_brute(n, j, ctx) for j in range(m + 1)]
    return contract_form(central_factor_expand(m, ctx), images)


# -- Stancu moments ---------------------------------------------------------------


def _validate_stancu(n: int, m: int, alpha: Scalar, beta: Scalar, ctx: QContext):
    """`_validate_nm`, `check_stancu_parameters`, and refuse the plain operator's None, None."""
    _validate_nm(n, m)
    check_stancu_parameters(alpha, beta, ctx.backend)
    if alpha is None:
        raise DomainError("stancu moments need alpha and beta")


@_memo_on_context
def stancu_moment(n: int, m: int, ctx: QContext, alpha: Scalar, beta: Scalar) -> Polynomial:
    """Image of t^m under the Stancu variant, as a polynomial in x.

    The image is rewritten through plain moments:

        sum_j C(m, j) [n]^j alpha^(m-j) / ([n]+beta)^m * D_{n,q}(t^j; x)

    with the plain moments drawn from the brute route.  The quoted m <= 2
    table is `stated_stancu_moment`; it agrees with this exactly.
    """
    _validate_stancu(n, m, alpha, beta, ctx)
    qn = ctx.q_int(n)
    shift_m = (qn + beta) ** m
    total = Polynomial.zero(ctx.backend)
    for j in range(m + 1):
        c = (qn ** j) * (alpha ** (m - j)) / shift_m * math.comb(m, j)
        if not c.is_zero:
            total = total + raw_moment_brute(n, j, ctx).scale(c)
    return total


def stancu_central_moment(
    n: int, m: int, ctx: QContext, alpha: Scalar, beta: Scalar
) -> Polynomial:
    """Image of the ordinary power (t-x)^m under the Stancu variant.

    The binomial coefficients of (t-x)^m contracted against the Stancu raw
    moments.  The quoted m <= 2 table is `stated_stancu_central_moment`; its
    m = 2 entry is misprinted.
    """
    _validate_stancu(n, m, alpha, beta, ctx)
    coeffs = [ctx.one * ((-1) ** (m - j) * math.comb(m, j)) for j in range(m + 1)]
    return contract_form(coeffs, [stancu_moment(n, j, ctx, alpha, beta) for j in range(m + 1)])


# -- route sets: (reference, [(route, value), ...]) -------------------------------


def raw_routes(n: int, m: int, ctx: QContext, m_max: int):
    """Closed, brute, recurrence (one run to m_max >= m per context); brute is the reference."""
    brute = raw_moment_brute(n, m, ctx)
    return brute, [("closed", raw_moment_closed(n, m, ctx)), ("brute", brute),
                   ("recurrence", raw_moment_recurrence(n, m_max, ctx)[m])]


def central_routes(n: int, m: int, ctx: QContext):
    """Closed, expansion; expansion is the reference."""
    expansion = central_moment(n, m, ctx, ROUTE_EXPANSION)
    return expansion, [(ROUTE_CLOSED, central_moment(n, m, ctx, ROUTE_CLOSED)),
                       (ROUTE_EXPANSION, expansion)]


def stancu_routes(n: int, m: int, ctx: QContext, alpha: Scalar, beta: Scalar):
    """Recursion, direct kernel sum; recursion is the reference."""
    recursion = stancu_moment(n, m, ctx, alpha, beta)
    spec = OperatorSpec(n, ctx, alpha, beta)
    direct = durrmeyer_apply_poly(spec, Polynomial.monomial(m, ctx.backend))
    return recursion, [("recursion", recursion), ("direct", direct)]


# -- quoted forms kept for the transcription audit ---------------------------------


def stated_raw_moment(n: int, m: int, ctx: QContext) -> Polynomial:
    """The t^m closed form exactly as usually quoted, m in {2, 3, 4}.

    Kept verbatim so the audit can compare it against the brute route; the
    m = 1 quoted form is identical to the corrected table and lives there.
    """
    _validate_nm(n, m)
    if m not in (2, 3, 4):
        raise DomainError("quoted raw-moment forms cover m in {2, 3, 4}")
    ctxq = ctx.q
    qi, qp = ctx.q_int, ctx.q_power
    if m == 2:
        coeffs = [
            qi(2),
            ctxq * qi(2) ** 2 * qi(n),
            qp(3) * _q_falling(n, 2, ctx),
        ]
    elif m == 3:
        coeffs = [
            qi(3) * qi(2),
            ctxq * qi(2) * qi(n) * _q_weights(ctx, (1, 2, 3, 2, 1)),
            qp(3) * _q_falling(n, 2, ctx) * _q_weights(ctx, (1, 1, 2, 3, 2)),
            qp(8) * _q_falling(n, 3, ctx),
        ]
    else:
        coeffs = [
            qi(4) * qi(3) * qi(2),
            ctxq * qi(2) * qi(n) * _q_weights(ctx, (1, 3, 6, 9, 10, 9, 6, 3, 1)),
            qp(3)
            * _q_falling(n, 2, ctx)
            * _q_weights(ctx, (1, 2, 4, 8, 12, 14, 13, 10, 6, 2)),
            qp(8)
            * _q_falling(n, 3, ctx)
            * _q_weights(ctx, (1, 2, 2, 3, 4, 3, 1)),
            qp(15) * _q_falling(n, 4, ctx),
        ]
    den = ctx.one
    for j in range(2, m + 2):
        den = den * qi(n + j)
    return Polynomial(coeffs, ctx.backend).scale(ctx.one / den)


def stated_central_moment(n: int, m: int, ctx: QContext) -> Polynomial:
    """The central-moment statements exactly as usually quoted, m in 1..4."""
    _validate_nm(n, m)
    if m not in (1, 2, 3, 4):
        raise DomainError("quoted central forms cover m in 1..4")
    q = ctx.q
    qi, qp = ctx.q_int, ctx.q_power
    one = ctx.one
    if m == 1:
        den = qi(n + 2)
        return Polynomial((one / den, -(one + qp(n + 1)) / den), ctx.backend)
    if m == 2:
        den = qi(n + 3) * qi(n + 2)
        x2 = qp(2) * (one + qp(n)) * (qp(n + 1) * qi(2) - qi(n))
        x1 = (one + q) * (qp(2) * qi(n) - one - qp(n + 2))
        x0 = one + q
        return Polynomial((x0 / den, x1 / den, x2 / den), ctx.backend)
    if m == 3:
        den = qi(n + 2) * qi(n + 3) * qi(n + 4)
        x3 = qp(2) * (
            qp(6) * _q_falling(n, 3, ctx)
            - q * qi(3) * _q_falling(n, 2, ctx) * qi(n + 4)
            + qi(n + 4) * qi(n + 3) * qi(2) * qi(n)
            - q * qi(n + 4) * qi(n + 3) * qi(n + 2)
        )
        x2 = q * (
            qp(2) * _q_falling(n, 2, ctx) * _q_weights(ctx, (1, 1, 2, 3, 2))
            - qi(2) ** 2 * qi(3) * qi(n) * qi(n + 4)
            + qi(2) * qi(n + 4) * qi(n + 3)
        )
        x1 = (
            q * qi(2) * qi(n) * _q_weights(ctx, (1, 2, 3, 2, 1))
            - qi(2) * qi(3) * qi(n + 4)
        )
        x0 = qi(3) * qi(2)
        return Polynomial((x0 / den, x1 / den, x2 / den, x3 / den), ctx.backend)
    den5 = qi(n + 5) * qi(n + 4) * qi(n + 3) * qi(n + 2)
    den4 = qi(n + 4) * qi(n + 3) * qi(n + 2)
    den2 = qi(n + 3) * qi(n + 2)
    x4 = qp(4) * (
        qp(11) * _q_falling(n, 4, ctx) / den5
        - qp(4) * qi(4) * _q_falling(n, 3, ctx) / den4
        + (qi(5) + qp(2)) * _q_falling(n, 2, ctx) / den2
        - qi(4) * qi(n) / qi(n + 2)
        + qp(2)
    )
    x3 = qp(2) * (
        qp(6) * _q_falling(n, 3, ctx) * _q_weights(ctx, (1, 2, 2, 3, 4, 3, 1)) / den5
        - q * qi(4) * _q_falling(n, 2, ctx) * _q_weights(ctx, (1, 1, 2, 3, 2)) / den4
        + qi(2) ** 2 * (qi(5) + qp(2)) * qi(n) / den2
        - q * qi(4)
    )
    x2 = (
        qp(2) * _q_falling(n, 2, ctx) * _q_weights(ctx, (1, 2, 4, 8, 12, 14, 13, 10, 6, 2)) / den5
        - qi(4) * qi(2) * qi(n) * _q_weights(ctx, (1, 2, 3, 2, 1)) / den4
        + (one + q) * (qi(5) + qp(2)) / den2
    )
    x1 = (
        q * qi(2) * qi(n) * _q_weights(ctx, (1, 3, 6, 9, 10, 9, 6, 3, 1))
        + qi(4) * qi(3) * qi(2) * qi(n + 5)
    ) / den5
    x0 = qi(4) * qi(3) * qi(2) / den5
    return Polynomial((x0, x1, x2, x3, x4), ctx.backend)


def stated_stancu_moment(n: int, m: int, ctx: QContext, alpha: Scalar, beta: Scalar) -> Polynomial:
    """The two-parameter t^m table exactly as usually quoted, m <= 2; it is correct."""
    _validate_stancu(n, m, alpha, beta, ctx)
    if m > 2:
        raise DomainError("quoted stancu forms cover m <= 2")
    q, qi = ctx.q, ctx.q_int
    qn = ctx.q_int(n)
    shift = qn + beta
    if m == 0:
        return Polynomial.one(ctx.backend)
    if m == 1:
        den = qi(n + 2) * shift
        return Polynomial(((qn + alpha * qi(n + 2)) / den, q * qn ** 2 / den), ctx.backend)
    den = shift ** 2 * qi(n + 2) * qi(n + 3)
    x2 = ctx.q_power(3) * qn ** 3 * (qn - 1) / den
    x1 = ((q * qi(2) ** 2 + 2 * alpha * ctx.q_power(4)) * qn ** 3
          + 2 * alpha * q * qi(3) * qn ** 2) / den
    x0 = alpha ** 2 / shift ** 2 + (
        (ctx.one + q + 2 * alpha * ctx.q_power(3)) * qn ** 2 + 2 * alpha * qi(3) * qn
    ) / den
    return Polynomial((x0, x1, x2), ctx.backend)


def stated_stancu_central_moment(
    n: int, m: int, ctx: QContext, alpha: Scalar, beta: Scalar
) -> Polynomial:
    """The two-parameter (t-x)^m table exactly as usually quoted, m in {1, 2}.

    The m = 2 entry is misprinted (the audit documents this), so it is kept
    only for the transcription audit.
    """
    _validate_stancu(n, m, alpha, beta, ctx)
    if m not in (1, 2):
        raise DomainError("quoted stancu central forms cover m in {1, 2}")
    q, qi = ctx.q, ctx.q_int
    qn = ctx.q_int(n)
    shift = qn + beta
    if m == 1:
        den = qi(n + 2) * shift
        return Polynomial(
            ((qn + alpha * qi(n + 2)) / den, q * qn ** 2 / den - ctx.one), ctx.backend
        )
    den = shift ** 2 * qi(n + 2) * qi(n + 3)
    x2 = (ctx.q_power(4) * qn ** 4 - ctx.q_power(3) * qn ** 3
          - 2 * q * qn ** 2 * qi(n + 3) * shift
          + qi(n + 2) * qi(n + 3) * shift ** 2) / den
    x1 = (q * qi(2) ** 2 * qn ** 3 + 2 * q * alpha * qn ** 2 * qi(n + 3)
          - (2 * qn + 2 * alpha * qi(n + 2)) * qi(n + 3) * shift) / den
    x0 = ((ctx.one + q) * qn ** 2 + 2 * alpha * qn * qi(n + 3)) / den
    return Polynomial((x0, x1, x2), ctx.backend)


# -- transcription audit ---------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    """One row of the `verify` report: a mandatory check, or an informational audit entry."""

    key: str
    status: str  # "pass" / "fail" when mandatory, "match" / "mismatch-documented" for the audit
    mandatory: bool
    witness: str | None = None

    @classmethod
    def first_failure(cls, key: str, cases, mandatory: bool) -> ReportRow:
        """Judge (label, ok) cases: the first case that is not ok fails the row as its witness.

        No case after it is evaluated.
        """
        witness = next((label for label, ok in cases if not ok), None)
        statuses = ("pass", "fail") if mandatory else ("match", "mismatch-documented")
        return cls(key, statuses[witness is not None], mandatory, witness)

    def as_dict(self) -> dict:
        out = {"name": self.key, "status": self.status, "mandatory": self.mandatory}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def transcription_audit(
    ctxs: Sequence[QContext],
    n_values: Sequence[int] = (1, 2, 3, 4, 5, 6),
) -> list[ReportRow]:
    """Compare every quoted closed form against its derivation-based route.

    Returns one row per identity.  Mismatches are reported as
    "mismatch-documented" with the first mismatching pair as the witness;
    they never fail a suite, since the library computes with the corrected
    forms.
    """

    def per_q(stated, derived, m):
        return ((f"q={ctx.q}", stated(m, ctx), derived(m, ctx)) for ctx in ctxs)

    def per_n(stated, derived, m):
        return ((f"n={n} q={ctx.q}", stated(n, m, ctx), derived(n, m, ctx))
                for ctx in ctxs for n in n_values)

    def per_stancu(stated, derived, m):
        for ctx in ctxs:
            for n in n_values:
                for a, b in STANCU_PARAMS:
                    alpha, beta = ctx.scalar(a), ctx.scalar(b)
                    yield (f"n={n} q={ctx.q} alpha={a} beta={b}",
                           stated(n, m, ctx, alpha, beta), derived(n, m, ctx, alpha, beta))

    def cases(pairs):
        for label, stated, derived in pairs:
            ok = stated == derived
            yield (label if ok else f"{label}: stated {stated!r} vs derived {derived!r}"), ok

    # entry key -> its lazy (label, stated, derived) pairs, in report order
    table = (
        [(f"moment-t{m}-transcription", per_n(stated_raw_moment, raw_moment_brute, m))
         for m in (2, 3, 4)]
        + [(f"lemma1.1-m{m}-transcription", per_n(stated_central_moment, central_moment, m))
           for m in (1, 2, 3, 4)]
        + [(f"central-factor-m{m}-transcription",
            per_q(stated_central_factor, central_factor_expand, m)) for m in (2, 3, 4)]
        + [(f"lemma-l1-m{m}-transcription", per_stancu(stated_stancu_moment, stancu_moment, m))
           for m in (1, 2)]
        + [(f"lemma-l4-m{m}-transcription",
            per_stancu(stated_stancu_central_moment, stancu_central_moment, m)) for m in (1, 2)]
    )
    return [ReportRow.first_failure(key, cases(pairs), mandatory=False) for key, pairs in table]
