"""Exact dense polynomial algebra over Scalar.

Moment formulas live here as polynomials in x.  A form sum_j c_j t^j x^(m-j),
such as the central factor (t - x)(t - qx)...(t - q^(m-1) x), is its scalars
c_0..c_m, and `contract_form` maps it to an x-polynomial from the images of
the powers t^j.  Everything is immutable value semantics.  A `Polynomial` is
also the polynomial test function f of the operator and asymptotics entry
points, beside the black-box `qcore.FunctionSpec`.

The public constructor checks every coefficient.  The algebra computes on
raw `.value`s, starting from the backend's own zero (`Fraction(0)` or `0.0`)
and in the order of the Scalar operations, so float results are bit-identical
to working one Scalar at a time; the trusted `Polynomial._like` strips
exact trailing zeros and wraps each result coefficient once.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence

from .errors import BackendMismatchError, DomainError
from .qcore import Backend, QContext, Scalar

__all__ = ["Polynomial", "contract_form"]

_NEG_INF = float("-inf")
_ZERO = {b: Scalar.zero(b) for b in Backend}  # raw values Fraction(0) and 0.0


def _strip(values: list) -> list:
    while values and values[-1] == 0:
        values.pop()
    return values


def _add(a: list, b: list, zero, op=operator.add) -> list:
    return [op(x, y) for x, y in zip_longest(a, b, fillvalue=zero)]


def _mul(a: list, b: list, zero) -> list:
    out = [zero] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a if b else ()):
        if x != 0:
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return out


class Polynomial:
    """Dense univariate polynomial; coeffs[i] multiplies X^i.

    Normalized on construction: trailing coefficients that are exactly zero
    are stripped, so the zero polynomial has an empty coefficient tuple.
    Float-backend near-zeros are kept as they are; only exact zeros drop.
    """

    __slots__ = ("coeffs", "backend")

    def __init__(self, coeffs: Iterable[Scalar], backend: Backend | None = None):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, Scalar):
                raise TypeError("polynomial coefficients must be Scalars")
            if backend is None:
                backend = c.backend
            elif c.backend is not backend:
                raise BackendMismatchError("polynomial coefficients mix backends")
        if backend is None:
            raise DomainError("zero polynomial needs an explicit backend")
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "backend", backend)

    def _like(self, values: Iterable) -> "Polynomial":
        """Trusted constructor: raw Fractions or floats of this backend, each wrapped once."""
        out, wrap = object.__new__(Polynomial), _ZERO[self.backend]._wrap
        object.__setattr__(out, "coeffs", tuple(map(wrap, _strip(list(values)))))
        object.__setattr__(out, "backend", self.backend)
        return out

    def _values(self) -> list:
        return [c.value for c in self.coeffs]

    def __setattr__(self, name, val):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, backend: Backend) -> "Polynomial":
        return cls((), backend)

    @classmethod
    def one(cls, backend: Backend) -> "Polynomial":
        return cls((Scalar.one(backend),))

    @classmethod
    def monomial(cls, m: int, backend: Backend) -> "Polynomial":
        if m < 0:
            raise DomainError("monomial degree must be nonnegative")
        return cls([Scalar.zero(backend)] * m + [Scalar.one(backend)], backend)

    @classmethod
    def from_fractions(cls, values: Iterable) -> "Polynomial":
        """Exact polynomial from ints, Fractions, or 'p/q' strings."""
        return cls([Scalar.exact(Fraction(v)) for v in values], Backend.EXACT)

    # -- structure ----------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else _NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Scalar:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Scalar.zero(self.backend)

    def _operands(self, other: "Polynomial") -> tuple:
        """The raw values of self and of a checked other, and the backend's zero."""
        if not isinstance(other, Polynomial):
            raise TypeError("expected a Polynomial")
        if other.backend is not self.backend:
            raise BackendMismatchError("polynomial backends differ")
        return self._values(), other._values(), _ZERO[self.backend].value

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._like(_add(*self._operands(other)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._like(_add(*self._operands(other), operator.sub))

    def __neg__(self) -> "Polynomial":
        return self._like([-c.value for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return self._like(_mul(*self._operands(other)))

    def scale(self, s) -> "Polynomial":
        """Multiply by s: a Scalar of this backend, an int, or a Fraction on the exact backend."""
        v = _ZERO[self.backend]._lift(s)
        if v is NotImplemented:
            raise TypeError(f"cannot scale a polynomial by {type(s).__name__}")
        return self._like([c.value * v for c in self.coeffs])

    def shift_up(self, k: int = 1) -> "Polynomial":
        """Multiply by X^k."""
        if self.is_zero:
            return self
        return self._like([_ZERO[self.backend].value] * k + self._values())

    # -- evaluation and calculus --------------------------------------------------

    def eval(self, x: Scalar) -> Scalar:
        if x.backend is not self.backend:
            raise BackendMismatchError("evaluation point backend differs")
        acc = Scalar.zero(x.backend)  # Horner's rule
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = eval

    def q_derivative(self, ctx: QContext) -> "Polynomial":
        """Termwise rule: the X^(m-1) coefficient becomes [m]_q * coeffs[m]."""
        if ctx.backend is not self.backend:
            raise BackendMismatchError("context backend differs")
        return self._like(
            [ctx.q_int(m).value * self.coeffs[m].value for m in range(1, len(self.coeffs))]
        )

    def derivative(self) -> "Polynomial":
        """Ordinary derivative, the q -> 1 limit of q_derivative."""
        return Polynomial(
            (self.coeffs[m] * m for m in range(1, len(self.coeffs))), self.backend
        )

    def compose_affine(self, a: Scalar, b: Scalar) -> "Polynomial":
        """The polynomial p(a*X + b), expanded exactly."""
        if a.backend is not self.backend or b.backend is not self.backend:
            raise BackendMismatchError("affine parameters backend differs")
        zero, inner, acc = _ZERO[self.backend].value, _strip([b.value, a.value]), []
        for c in reversed(self.coeffs):
            acc = _add(_mul(acc, inner, zero), _strip([c.value]), zero)
        return self._like(acc)

    # -- misc -------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.backend is other.backend and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.backend, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            parts.append(str(c) if i == 0 else f"({c})*X^{i}")
        return "Polynomial(" + " + ".join(parts) + ")"


def contract_form(coeffs: Sequence[Scalar], images: Sequence[Polynomial]) -> Polynomial:
    """sum_j coeffs[j] x^(m-j) images[j] with m = len(coeffs) - 1.

    The image of the form sum_j coeffs[j] t^j x^(m-j) under a linear operator
    in t, given images[j], the image of t^j as a polynomial in x.
    """
    if not coeffs or len(images) != len(coeffs):
        raise DomainError("need one image polynomial per form coefficient")
    backend, m = images[0].backend, len(coeffs) - 1
    if any(v.backend is not backend for v in (*coeffs, *images)):
        raise BackendMismatchError("form coefficients and images mix backends")
    zero, acc = _ZERO[backend].value, []
    for j, (c, img) in enumerate(zip(coeffs, images)):
        if not c.is_zero:
            acc = _add(acc, [zero] * (m - j) + [c.value * v for v in img._values()], zero)
    return images[0]._like(acc)
