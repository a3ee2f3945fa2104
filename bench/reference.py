"""Exact reference values, computed with `fractions.Fraction` only.

Nothing here imports the library: the references must stay independent of
the code they check.  Two routes are used.

* `kernel_values` applies the plain q-Durrmeyer operator to a polynomial at
  given points through its kernel sum.  With exact q-Beta values the q-binomial
  of the kernel cancels, leaving

      D_{n,q}(p; x) = [n+1]_q sum_k p_{nk}(q; x)
                      sum_m p_m  prod_{i=1..m} [k+i]_q / prod_{i=1..m+1} [n+i]_q.

  The cost is O(n * deg p) rational operations, so it serves at desk-scale n.
* `recurrence_moments` runs the raw-moment recurrence

      [n+m+2]_q M_{m+1} = ([m+1]_q + q^(m+1) [n]_q x) M_m
                          + q^(m+1) x (1-x) D_q M_m,

  valid for n > m + 2, on coefficient lists.  Its cost does not grow with
  the number of kernel terms, so it reaches n = 1024.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def q_int(j: int, q: Fraction) -> Fraction:
    """[j]_q = (1 - q^j) / (1 - q)."""
    return (1 - q ** j) / (1 - q)


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def compose_affine(coeffs: Sequence[Fraction], a: Fraction, b: Fraction) -> list[Fraction]:
    """Coefficients of p(a t + b)."""
    out = [Fraction(0)]
    for c in reversed(coeffs):
        out = poly_mul(out, [b, a])
        out[0] += c
    return out


def q_central_factor(m: int, q: Fraction, x: Fraction) -> list[Fraction]:
    """Coefficients in t of (t-x)_q^m = prod_{s<m} (t - q^s x) at a fixed x."""
    out = [Fraction(1)]
    for s in range(m):
        out = poly_mul(out, [-(q ** s) * x, Fraction(1)])
    return out


def kernel_values(n: int, q: Fraction, coeffs: Sequence[Fraction], xs: Sequence[Fraction]) -> list[Fraction]:
    """D_{n,q}(p; x) at each x in `xs`, for the polynomial with ascending `coeffs`."""
    deg = len(coeffs) - 1
    qi = [Fraction(0)] + [q_int(j, q) for j in range(1, n + deg + 2)]
    # den[m] = prod_{i=1..m+1} [n+i]_q
    den, acc = [], Fraction(1)
    for m in range(deg + 1):
        acc *= qi[n + m + 1]
        den.append(acc)
    # weight[k] = [n choose k]_q * sum_m p_m prod_{i<=m} [k+i]_q / den[m]
    weights, binom = [], Fraction(1)
    for k in range(n + 1):
        if k:
            binom = binom * qi[n - k + 1] / qi[k]
        inner, rising = Fraction(0), Fraction(1)
        for m, c in enumerate(coeffs):
            if m:
                rising *= qi[k + m]
            if c:
                inner += c * rising / den[m]
        weights.append(binom * inner)
    out = []
    for x in xs:
        # prefix[j] = (1-x)_q^j
        prefix = [Fraction(1)]
        for s in range(n):
            prefix.append(prefix[-1] * (1 - q ** s * x))
        total = sum((w * x ** k * prefix[n - k] for k, w in enumerate(weights)), Fraction(0))
        out.append(qi[n + 1] * total)
    return out


def recurrence_moments(n: int, m_max: int, q: Fraction) -> list[list[Fraction]]:
    """Raw moments M_0..M_m_max of the plain operator as coefficient lists."""
    if n <= m_max + 1:
        raise ValueError(f"the recurrence needs n > m + 2 for every step (n={n}, m_max={m_max})")
    qn = q_int(n, q)
    moments = [[Fraction(1)]]
    for m in range(m_max):
        cur = moments[-1]
        qm1 = q ** (m + 1)
        linear = poly_mul([q_int(m + 1, q), qm1 * qn], cur)
        dq = [q_int(j, q) * cur[j] for j in range(1, len(cur))] or [Fraction(0)]
        second = poly_mul([Fraction(0), qm1, -qm1], dq)
        size = max(len(linear), len(second))
        linear += [Fraction(0)] * (size - len(linear))
        second += [Fraction(0)] * (size - len(second))
        scale = q_int(n + m + 2, q)
        nxt = [(u + v) / scale for u, v in zip(linear, second)]
        moments.append(nxt[: m + 2])
    return moments


def image_from_moments(moments: Sequence[Sequence[Fraction]], coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    return sum((c * poly_eval(moments[m], x) for m, c in enumerate(coeffs) if c), Fraction(0))


# -- black-box functions through Taylor polynomials ------------------------------

TAYLOR_DEGREE = 24


def taylor(name: str, degree: int = TAYLOR_DEGREE) -> tuple[list[Fraction], Fraction]:
    """Maclaurin coefficients of `name` and a bound on sup_[0,1] |f - p_N|.

    Lagrange's remainder gives e/(N+1)! for exp and 1/(N+1)! for sin.
    """
    if name == "exp":
        coeffs = [Fraction(1, math.factorial(m)) for m in range(degree + 1)]
        return coeffs, Fraction(3, math.factorial(degree + 1))
    if name == "sin":
        coeffs = [
            Fraction((-1) ** (m // 2), math.factorial(m)) if m % 2 else Fraction(0)
            for m in range(degree + 1)
        ]
        return coeffs, Fraction(1, math.factorial(degree + 1))
    raise ValueError(f"no Taylor reference for {name!r}")


def certified_lhs(name: str, n: int, q: Fraction, xs: Sequence[Fraction]) -> list[tuple[Fraction, Fraction]]:
    """[n]_q (D_{n,q}(f; x) - f(x)) at each x, with a rigorous bound on its error.

    D is positive with unit mass, so |D f - D p_N| <= sup |f - p_N|; the
    same bound holds for |f(x) - p_N(x)|.  Both are scaled by [n]_q.
    """
    coeffs, rem = taylor(name)
    qn = q_int(n, q)
    images = kernel_values(n, q, coeffs, xs)
    return [(qn * (img - poly_eval(coeffs, x)), 2 * qn * rem) for img, x in zip(images, xs)]
