from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdurrmeyer import (
    Backend,
    BackendMismatchError,
    Polynomial,
    QContext,
    Scalar,
    q_derivative,
)
from qdurrmeyer.polyalg import BivariateExpansion

exact_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=12)
exact_poly = st.lists(exact_coeff, min_size=0, max_size=6).map(Polynomial.from_fractions)
rational_q = st.fractions(
    min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=40
)
rational_x = st.fractions(min_value=0, max_value=1, max_denominator=64)


def test_arith_examples():
    one_plus = Polynomial.from_fractions([1, 1])
    one_minus = Polynomial.from_fractions([1, -1])
    assert one_plus * one_minus == Polynomial.from_fractions([1, 0, -1])
    p = Polynomial.from_fractions([2, 0, 5])
    assert p + Polynomial.zero(Backend.EXACT) == p
    assert (
        Polynomial.from_fractions([1, 2]) * Polynomial.from_fractions([0, 0, 3])
    ) == Polynomial.from_fractions([0, 0, 3, 6])


def test_eval_examples():
    assert Polynomial.from_fractions([1, 0, 1]).eval(Scalar.exact(1, 2)) == Fraction(5, 4)
    assert Polynomial.zero(Backend.EXACT).eval(Scalar.exact(2, 3)) == 0
    assert Polynomial.from_fractions([0, 0, 0, 1]).eval(Scalar.exact(3, 4)) == Fraction(27, 64)


def test_q_derivative_examples(ctx_half):
    assert Polynomial.from_fractions([0, 0, 1]).q_derivative(ctx_half) == (
        Polynomial.from_fractions([0, Fraction(3, 2)])
    )
    assert Polynomial.from_fractions([7]).q_derivative(ctx_half).is_zero
    assert Polynomial.from_fractions([1, 1, 0, 1]).q_derivative(ctx_half) == (
        Polynomial.from_fractions([1, 0, Fraction(7, 4)])
    )


def test_compose_affine_examples():
    x2 = Polynomial.from_fractions([0, 0, 1])
    assert x2.compose_affine(Scalar.exact(1), Scalar.exact(0)) == x2
    x1 = Polynomial.from_fractions([0, 1])
    assert x1.compose_affine(Scalar.exact(2, 3), Scalar.exact(1, 3)) == (
        Polynomial.from_fractions([Fraction(1, 3), Fraction(2, 3)])
    )
    assert x2.compose_affine(Scalar.exact(1, 2), Scalar.exact(1, 2)) == (
        Polynomial.from_fractions([Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])
    )


def test_backend_mismatch_rejected():
    with pytest.raises(BackendMismatchError):
        Polynomial.from_fractions([1]) + Polynomial((Scalar.floating(1.0),))
    with pytest.raises(BackendMismatchError):
        Polynomial.from_fractions([1, 1]).eval(Scalar.floating(0.5))


def test_normalization_strips_exact_zeros_only():
    p = Polynomial.from_fractions([1, 0, 0])
    assert p.degree == 0
    tiny = Polynomial((Scalar.floating(1.0), Scalar.floating(1e-300)))
    assert tiny.degree == 1  # float near-zero kept
    assert Polynomial.zero(Backend.EXACT).degree == float("-inf")


@given(a=exact_poly, b=exact_poly, x=rational_x)
@settings(max_examples=80, deadline=None)
def test_eval_is_ring_homomorphism(a, b, x):
    xs = Scalar.exact(x)
    assert (a * b).eval(xs) == a.eval(xs) * b.eval(xs)
    assert (a + b).eval(xs) == a.eval(xs) + b.eval(xs)


@given(a=exact_poly, b=exact_poly)
@settings(max_examples=60, deadline=None)
def test_product_degree(a, b):
    if not a.is_zero and not b.is_zero:
        assert (a * b).degree == a.degree + b.degree


@given(p=exact_poly)
@settings(max_examples=40, deadline=None)
def test_identity_substitution_is_bit_identical(p):
    assert p.compose_affine(Scalar.exact(1), Scalar.exact(0)) == p


@given(p=exact_poly, q=rational_q)
@settings(max_examples=40, deadline=None)
def test_q_derivative_agrees_with_difference_quotient(p, q):
    ctx = QContext.exact(q)
    derived = p.q_derivative(ctx)
    spec = p.as_function_spec()
    for k in range(1, 65, 7):
        x = Scalar.exact(k, 65)
        assert derived.eval(x) == q_derivative(spec, x, ctx)


def test_repeated_q_derivative_annihilates(ctx_half):
    p = Polynomial.from_fractions([3, -1, 2, 5])
    out = p
    for step in range(p.degree + 1):
        assert out.degree == p.degree - step
        out = out.q_derivative(ctx_half)
    assert out.is_zero


def test_q_derivative_coefficients_approach_classical():
    p = Polynomial.from_fractions([0, 2, -3, 1])
    classical = p.derivative()
    for i in (4, 8, 12):
        q = Fraction(2 ** i - 1, 2 ** i)
        ctx = QContext.exact(q)
        dq = p.q_derivative(ctx)
        worst = max(
            abs(dq.coefficient(j) - classical.coefficient(j)) for j in range(3)
        )
        assert worst <= 6 * (1 - q)


class TestBivariateExpansion:
    def test_eval_and_contract(self, ctx_half):
        # t^2 - x t  ==  t(t - x)
        coeffs = [
            Polynomial.zero(Backend.EXACT),
            Polynomial.from_fractions([0, -1]),
            Polynomial.one(Backend.EXACT),
        ]
        e = BivariateExpansion(coeffs)
        t, x = Scalar.exact(3, 4), Scalar.exact(1, 2)
        assert e.eval(t, x) == t * (t - x)
        images = [Polynomial.one(Backend.EXACT)] * 3
        assert e.contract(images) == Polynomial.from_fractions([1, -1])

    def test_t_degree(self):
        e = BivariateExpansion([Polynomial.one(Backend.EXACT)])
        assert e.t_degree == 0
