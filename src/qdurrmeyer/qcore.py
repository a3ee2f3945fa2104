"""Foundational q-arithmetic: q-integers, q-binomials, Jackson integrals, q-Beta.

Conventions (Jackson / Kac-Cheung):

    [n]_q        = 1 + q + ... + q^(n-1),              [0]_q = 0
    [n]_q!       = [1]_q [2]_q ... [n]_q,              [0]_q! = 1
    (1-x)_q^m    = prod_{s=0}^{m-1} (1 - q^s x)
    D_q f(x)     = (f(qx) - f(x)) / ((q-1) x)          for x != 0
    int_0^1 f d_q t = (1-q) sum_{j>=0} q^j f(q^j)
    B_q(a, b)    = int_0^1 t^(a-1) (1-qt)_q^(b-1) d_q t
                 = [a-1]_q! [b-1]_q! / [a+b-1]_q!

Every operation is a pure function of its inputs.  Numbers are `Scalar`
values tagged with a backend: exact rationals (no rounding, decidable
equality) or binary floats.  The two backends never mix silently.  A
`QContext` always carries 0 < q < 1; the q = 1 operator needs no context
(see `operators.classical_durrmeyer_apply`).

Exact q-integers use the closed form [n]_q = (1 - q^n)/(1 - q) in integers;
float ones keep the running sum, as the closed form cancels badly near q = 1.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping

from .errors import (
    BackendMismatchError,
    DomainError,
    JacksonTruncationError,
    OriginDerivativeError,
)

__all__ = [
    "Backend",
    "Scalar",
    "QContext",
    "FunctionSpec",
    "BUILTIN_NAMES",
    "q_pochhammer_one_minus",
    "q_derivative",
    "jackson_integral",
    "jackson_series",
    "q_beta",
    "DEFAULT_TOL",
    "DEFAULT_MAX_TERMS",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_TERMS = 4096


class Backend(Enum):
    EXACT = "exact"
    FLOAT = "float"


class Scalar:
    """A number tagged with its arithmetic backend.

    Exact scalars wrap `fractions.Fraction`; float scalars wrap a binary
    double.  Arithmetic between the two backends raises
    `BackendMismatchError` instead of coercing.  Plain Python ints are
    backend-neutral literals and adopt the backend of the Scalar operand.
    """

    __slots__ = ("value", "backend")

    def __init__(self, value, backend: Backend):
        if backend is Backend.EXACT:
            if isinstance(value, float):
                raise BackendMismatchError("exact scalar built from a float")
            value = value if type(value) is Fraction else Fraction(value)
        elif backend is Backend.FLOAT:
            value = float(value)
        else:
            raise TypeError(f"unknown backend {backend!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "backend", backend)

    def __setattr__(self, name, val):
        raise AttributeError("Scalar is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def exact(cls, numerator, denominator=1) -> "Scalar":
        return cls(Fraction(numerator, denominator), Backend.EXACT)

    @classmethod
    def floating(cls, value) -> "Scalar":
        return cls(float(value), Backend.FLOAT)

    @classmethod
    def from_ratio(cls, num, den, backend: Backend) -> "Scalar":
        """num / den as one Fraction when exact, one float division on float.

        A float num or den past the float range raises DomainError instead of
        giving inf, nan or a spurious 0.
        """
        if backend is Backend.EXACT:
            return cls(Fraction(num, den), backend)
        value = num / den
        if not (math.isfinite(value) and math.isfinite(den)):
            raise DomainError("float ratio leaves the float range; use the exact backend")
        return cls(value, backend)

    @classmethod
    def zero(cls, backend: Backend) -> "Scalar":
        return cls(0, backend)

    @classmethod
    def one(cls, backend: Backend) -> "Scalar":
        return cls(1, backend)

    # -- helpers -----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.backend is Backend.EXACT

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def as_ratio(self) -> tuple:
        """The integer view: (numerator, denominator) in lowest terms when exact, (value, 1) on float."""
        if self.is_exact:
            return self.value.numerator, self.value.denominator
        return self.value, 1

    def _lift(self, other):
        """Return the raw value of `other` in this scalar's backend.

        Ints are backend-neutral; Fractions are exact literals and refuse
        to meet a float scalar.
        """
        if isinstance(other, Scalar):
            if other.backend is not self.backend:
                raise BackendMismatchError(
                    f"cannot mix {self.backend.value} and {other.backend.value} scalars"
                )
            return other.value
        if isinstance(other, int):
            return Fraction(other) if self.is_exact else float(other)
        if isinstance(other, Fraction):
            if not self.is_exact:
                raise BackendMismatchError("cannot mix a Fraction with a float scalar")
            return other
        if isinstance(other, float):
            if self.is_exact:
                raise BackendMismatchError("cannot mix a float with an exact scalar")
            return float(other)
        return NotImplemented

    def _wrap(self, value) -> "Scalar":
        # arithmetic on lifted values already yields a Fraction or a float
        out = object.__new__(Scalar)
        object.__setattr__(out, "value", value)
        object.__setattr__(out, "backend", self.backend)
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        v = self._lift(other)
        return NotImplemented if v is NotImplemented else self._wrap(self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        return NotImplemented if v is NotImplemented else self._wrap(self.value - v)

    def __rsub__(self, other):
        v = self._lift(other)
        return NotImplemented if v is NotImplemented else self._wrap(v - self.value)

    def __mul__(self, other):
        v = self._lift(other)
        return NotImplemented if v is NotImplemented else self._wrap(self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._lift(other)
        return NotImplemented if v is NotImplemented else self._wrap(self.value / v)

    def __rtruediv__(self, other):
        v = self._lift(other)
        return NotImplemented if v is NotImplemented else self._wrap(v / self.value)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("Scalar exponents must be ints")
        try:
            return self._wrap(self.value ** exponent)
        except OverflowError:  # only a float power overflows; it raises instead of giving inf
            raise DomainError("float power leaves the float range; use the exact backend") from None

    def __neg__(self):
        return self._wrap(-self.value)

    def __abs__(self):
        return self._wrap(abs(self.value))

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        v = self._lift(other)
        return NotImplemented if v is NotImplemented else self.value == v

    def __lt__(self, other):
        v = self._lift(other)
        return NotImplemented if v is NotImplemented else self.value < v

    def __le__(self, other):
        v = self._lift(other)
        return NotImplemented if v is NotImplemented else self.value <= v

    def __gt__(self, other):
        v = self._lift(other)
        return NotImplemented if v is NotImplemented else self.value > v

    def __ge__(self, other):
        v = self._lift(other)
        return NotImplemented if v is NotImplemented else self.value >= v

    def __hash__(self):
        return hash((self.backend, self.value))

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        tag = "x" if self.is_exact else "f"
        return f"Scalar<{tag}>({self.value})"

    def __str__(self):
        return str(self.value)


class QContext:
    """The deformation parameter q plus the caches that depend on it.

    Requires 0 < q < 1 strictly.  Contexts are immutable after construction
    and hash by identity.  Each context owns its q-integer and q-binomial
    tables and a `memo` dict that `_memo_on_context` fills, keyed by a function
    name plus the other arguments; all are freed with the context, so values for
    different q never mix and a sweep that drops its contexts does not accumulate
    them.  A context is not safe to share across threads; give each thread its own.

    Exact `q_int(n)` is S_n / d^(n-1), S_n = (d^n - a^n)/(d - a) for q = a/d in
    lowest terms, with S_n cached per index by `q_int_numerator`; float
    `q_int` is a running sum, and its S_n is [n]_q with d = 1.
    """

    __slots__ = ("q", "backend", "memo", "_qint", "_qnum", "_qfact", "_qbinom", "_qpow")

    def __init__(self, q: Scalar):
        if not isinstance(q, Scalar):
            raise TypeError("q must be a Scalar")
        if not (0 < q.value < 1):
            raise DomainError("q must satisfy 0 < q < 1")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "backend", q.backend)
        object.__setattr__(self, "memo", {})
        one = Scalar.one(q.backend)
        object.__setattr__(self, "_qint", {0: Scalar.zero(q.backend), 1: one})
        object.__setattr__(self, "_qnum", {})
        object.__setattr__(self, "_qfact", [one, one])
        object.__setattr__(self, "_qbinom", {})
        object.__setattr__(self, "_qpow", [one, q])

    def __setattr__(self, name, val):
        raise AttributeError("QContext is immutable")

    @classmethod
    def exact(cls, numerator, denominator=1) -> "QContext":
        return cls(Scalar.exact(numerator, denominator))

    @classmethod
    def floating(cls, value) -> "QContext":
        return cls(Scalar.floating(value))

    @property
    def zero(self) -> Scalar:
        return self._qint[0]

    @property
    def one(self) -> Scalar:
        return self._qint[1]

    def scalar(self, value) -> Scalar:
        """Lift an int or Fraction into this context's backend."""
        if isinstance(value, Scalar):
            if value.backend is not self.backend:
                raise BackendMismatchError("scalar backend does not match context")
            return value
        if self.backend is Backend.FLOAT and isinstance(value, Fraction):
            return Scalar.floating(float(value))
        return Scalar(value, self.backend)

    def q_power(self, j: int) -> Scalar:
        """q^j, cached for j >= 0."""
        if j < 0:
            return self.q ** j
        pows = self._qpow
        while len(pows) <= j:
            pows.append(pows[-1] * self.q)
        return pows[j]

    def q_int(self, n: int) -> Scalar:
        """[n]_q = 1 + q + ... + q^(n-1); zero for n = 0."""
        if n < 0:
            raise DomainError("q-integer index must be nonnegative")
        table = self._qint
        if n not in table and self.backend is Backend.FLOAT:
            for k in range(len(table), n + 1):
                table[k] = table[k - 1] + self.q_power(k - 1)
        elif n not in table:
            table[n] = Scalar.exact(self.q_int_numerator(n), self.q.value.denominator ** (n - 1))
        return table[n]

    def q_int_numerator(self, n: int):
        """S_n with [n]_q = S_n / d^(n-1), in the integer view q = a/d of `Scalar.as_ratio`.

        Exact: the int S_n = (d^n - a^n)/(d - a), congruent to a^(n-1) modulo d,
        hence prime to d and also the numerator of `q_int(n)`.  Float: d = 1, so
        S_n is the float [n]_q itself.
        """
        if n < 0:
            raise DomainError("q-integer index must be nonnegative")
        if self.backend is Backend.FLOAT:
            return self.q_int(n).value
        table = self._qnum
        if n not in table:
            a, d = self.q.as_ratio()
            table[n] = (d ** n - a ** n) // (d - a)
        return table[n]

    def q_fact(self, n: int) -> Scalar:
        """[n]_q! with [0]_q! = 1; a float product that overflows raises DomainError."""
        if n < 0:
            raise DomainError("q-factorial index must be nonnegative")
        table = self._qfact
        while len(table) <= n:
            value = table[-1] * self.q_int(len(table))
            if self.backend is Backend.FLOAT and not math.isfinite(value.value):
                raise DomainError(
                    f"float q-factorial [{len(table)}]_q! overflows; use the exact backend"
                )
            table.append(value)
        return table[n]

    def q_binom(self, n: int, k: int) -> Scalar:
        """Gaussian binomial [n choose k]_q as a q-factorial quotient, cached; 0 <= k <= n."""
        if not 0 <= k <= n:
            raise DomainError(f"q-binomial needs 0 <= k <= n, got n={n} k={k}")
        if (n, k) not in self._qbinom:
            self._qbinom[n, k] = self.q_fact(n) / (self.q_fact(k) * self.q_fact(n - k))
        return self._qbinom[n, k]

    def __repr__(self):
        return f"QContext(q={self.q}, backend={self.backend.value})"


def _memo_on_context(fn):
    """Memoize fn(*args) in the memo of its QContext argument, freed with it; hits are identical.

    The key is fn's name and the other arguments: a Scalar with its backend, any other with its
    type, so 2.0 misses 2 and a float alpha misses an equal exact one.  An argument that fn
    refuses raises and is never stored.
    """

    @functools.wraps(fn)
    def memoized(*args):
        ctx = next(a for a in args if isinstance(a, QContext))
        key = (fn.__name__,) + tuple((a.backend, a.value) if isinstance(a, Scalar) else (type(a), a)
                                     for a in args if a is not ctx)
        try:
            return ctx.memo[key]
        except KeyError:
            return ctx.memo.setdefault(key, fn(*args))

    return memoized


# -- q-arithmetic operations -------------------------------------------------


def q_pochhammer_one_minus(x: Scalar, m: int, ctx: QContext) -> Scalar:
    """(1-x)_q^m = prod_{s=0}^{m-1} (1 - q^s x); empty product is 1."""
    if m < 0:
        raise DomainError("q-Pochhammer length must be nonnegative")
    out = ctx.one
    for s in range(m):
        factor = ctx.one - ctx.q_power(s) * x
        if factor.is_zero:
            return ctx.zero
        out = out * factor
    return out


def q_beta(a: int, b: int, ctx: QContext) -> Scalar:
    """B_q(a, b) = [a-1]_q! [b-1]_q! / [a+b-1]_q! for integers a, b >= 1."""
    if a < 1 or b < 1:
        raise DomainError("q-Beta arguments must be >= 1")
    return ctx.q_fact(a - 1) * ctx.q_fact(b - 1) / ctx.q_fact(a + b - 1)


# -- function specifications ---------------------------------------------------

def _builtin_sqrt_shift(t: float) -> float:
    return math.sqrt(t + 0.5)


def _builtin_abs_shift(t: float) -> float:
    return abs(t - 0.5)


def _builtin_reciprocal_shift(t: float) -> float:
    return 1.0 / (t + 0.5)


# name -> (f, f', f'').  All are bounded on [0, 1]; the shifts keep
# singular or non-smooth points away from the endpoints.
_BUILTINS: Mapping[str, tuple] = {
    "exp": (math.exp, math.exp, math.exp),
    "sin": (math.sin, math.cos, lambda t: -math.sin(t)),
    "sqrt-shift": (
        _builtin_sqrt_shift,
        lambda t: 0.5 / math.sqrt(t + 0.5),
        lambda t: -0.25 * (t + 0.5) ** -1.5,
    ),
    "abs-shift": (
        _builtin_abs_shift,
        lambda t: math.copysign(1.0, t - 0.5),
        lambda t: 0.0,
    ),
    "reciprocal-shift": (
        _builtin_reciprocal_shift,
        lambda t: -((t + 0.5) ** -2),
        lambda t: 2.0 * (t + 0.5) ** -3,
    ),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


class FunctionSpec:
    """A black-box test function on [0, 1]: a named builtin or a tabulation.

    Builtins evaluate through float math and therefore demand the float
    backend.  Tabulated functions are a finite point -> value mapping with
    exact lookup; evaluation off the table is an error.  Polynomial test
    functions are `polyalg.Polynomial`, which every entry point that takes a
    FunctionSpec also accepts; both are called as f(x).
    """

    __slots__ = ("kind", "name", "table")

    BUILTIN = "builtin"
    TABULATED = "tabulated"

    def __init__(self, kind, name=None, table=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "table", table)

    def __setattr__(self, name, val):
        raise AttributeError("FunctionSpec is immutable")

    @classmethod
    def builtin(cls, name: str) -> "FunctionSpec":
        if name not in _BUILTINS:
            raise DomainError(f"unknown builtin {name!r}; choices: {', '.join(BUILTIN_NAMES)}")
        return cls(cls.BUILTIN, name=name)

    @classmethod
    def tabulated(cls, table: Mapping[Scalar, Scalar]) -> "FunctionSpec":
        if not table:
            raise DomainError("tabulated spec needs at least one point")
        return cls(cls.TABULATED, table=dict(table))

    def evaluate(self, x: Scalar) -> Scalar:
        if not (0 <= x.value <= 1):
            raise DomainError(f"function domain is [0, 1], got {x}")
        if self.kind == self.BUILTIN:
            if x.backend is not Backend.FLOAT:
                raise BackendMismatchError(
                    f"builtin {self.name!r} evaluates in float arithmetic; "
                    "use the float backend"
                )
            return Scalar.floating(_BUILTINS[self.name][0](x.value))
        try:
            return self.table[x]
        except KeyError:
            raise DomainError(f"tabulated function has no value at {x}") from None

    __call__ = evaluate

    def float_fn(self) -> Callable[[float], float]:
        """f on raw floats for `jackson_series`; refuses as `evaluate` does, and on exact values."""
        if self.kind == self.TABULATED:
            return lambda t: (node := Scalar.floating(t))._lift(self.evaluate(node))
        f = _BUILTINS[self.name][0]

        def builtin(t: float) -> float:
            if not 0 <= t <= 1:
                raise DomainError(f"function domain is [0, 1], got {t}")
            return f(t)

        return builtin

    def classical_derivative(self, x: Scalar, order: int) -> Scalar:
        """Ordinary derivative f'(x) or f''(x) of a builtin, used for limit-form targets."""
        if order not in (1, 2):
            raise DomainError("derivative order must be 1 or 2")
        if self.kind == self.TABULATED:
            raise DomainError("tabulated functions have no derivative rule")
        if x.backend is not Backend.FLOAT:
            raise BackendMismatchError("builtin derivatives need the float backend")
        if self.name == "abs-shift" and x.value == 0.5:
            raise DomainError("abs-shift is not differentiable at 0.5")
        return Scalar.floating(_BUILTINS[self.name][order](x.value))

    def __repr__(self):
        if self.kind == self.BUILTIN:
            return f"FunctionSpec({self.name})"
        return f"FunctionSpec(tabulated, {len(self.table)} pts)"


# -- q-derivative ---------------------------------------------------------------


def q_derivative(f, x: Scalar, ctx: QContext, order: int = 1) -> Scalar:
    """D_q f(x), or the iterated D_q^2 f(x) for order 2, for a FunctionSpec or a Polynomial.

    A Polynomial takes its own coefficient rule (`Polynomial.q_derivative`),
    valid at every x including 0.  A FunctionSpec takes the difference
    quotient, which is undefined at the origin.
    """
    if order not in (1, 2):
        raise DomainError("q-derivative order must be 1 or 2")
    if not (0 <= x.value <= 1):
        raise DomainError("q-derivative is evaluated on [0, 1]")
    if not isinstance(f, FunctionSpec):
        for _ in range(order):
            f = f.q_derivative(ctx)
        return f.eval(x)
    q = ctx.q
    denoms = [(q - 1) * x, (q - 1) * q * x][:order]
    if any(d.is_zero for d in denoms):  # x = 0, or a float product that underflows to 0
        raise OriginDerivativeError(
            "q-derivative at x = 0 is defined only through the polynomial rule" if x.is_zero else
            f"a float q-difference quotient at x = {x} divides by a product that underflows to 0")
    first_at_x = (f.evaluate(q * x) - f.evaluate(x)) / denoms[0]
    if order == 1:
        return first_at_x
    first_at_qx = (f.evaluate(q * q * x) - f.evaluate(q * x)) / denoms[1]
    return (first_at_qx - first_at_x) / denoms[0]


# -- Jackson integral -------------------------------------------------------------


def jackson_series(
    fn: Callable[[float], float],
    ctx: QContext,
    tol=None,
    max_terms: int | None = None,
) -> Scalar:
    """(1-q) sum_{j>=0} q^j fn(q^j), truncated when a term drops below tol; float backend only.

    fn maps a float node to a float; the node is the running product of q, as in `QContext.q_power`,
    so it has the bits of `ctx.q_power(j).value`.  A truncated sum is not exact, so an exact context
    raises BackendMismatchError; JacksonTruncationError if max_terms is hit first.
    """
    if ctx.backend is not Backend.FLOAT:
        raise BackendMismatchError("a truncated Jackson series is not exact; use the float backend")
    max_terms = DEFAULT_MAX_TERMS if max_terms is None else max_terms
    if max_terms < 1:
        raise DomainError("Jackson series needs max_terms >= 1")
    tol = ctx.scalar(DEFAULT_TOL if tol is None else tol).value
    if not tol > 0:
        raise DomainError("Jackson tolerance must be positive")
    q = ctx.q.value
    one_minus_q = ctx.one.value - q
    total = term = ctx.zero.value
    node = ctx.one.value
    for _ in range(max_terms):
        term = one_minus_q * node * fn(node)
        total = total + term
        if abs(term) < tol:
            return ctx.scalar(total)
        node = node * q
    raise JacksonTruncationError(
        f"Jackson series did not reach tol={tol} within {max_terms} terms "
        f"(last term magnitude {abs(term)})",
        last_term=ctx.scalar(abs(term)),
        terms=max_terms,
    )


def jackson_integral(f, ctx: QContext) -> Scalar:
    """int_0^1 f d_q t for a FunctionSpec or a Polynomial.

    A Polynomial is integrated in closed form, one monomial at a time
    through int_0^1 t^m d_q t = 1/[m+1]_q, so the result is exact.  A
    FunctionSpec goes through the truncated Jackson series, float backend only.
    """
    if isinstance(f, FunctionSpec):
        return jackson_series(f.float_fn(), ctx)
    if f.backend is not ctx.backend:
        raise BackendMismatchError("polynomial backend differs from context")
    total = ctx.zero.value  # a loop, not sum(): later Pythons compensate float sums
    for m, c in enumerate(f.coeffs):
        total = total + c.value / ctx.q_int(m + 1).value
    return Scalar(total, ctx.backend)
