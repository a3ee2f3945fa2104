import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdurrmeyer import (
    Backend,
    BackendMismatchError,
    FunctionSpec,
    Polynomial,
    QContext,
    Scalar,
    q_derivative,
)
from qdurrmeyer.errors import DomainError
from qdurrmeyer.polyalg import contract_form

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


def test_equality_and_hash():
    p = Polynomial.from_fractions([1, Fraction(1, 2)])
    assert p != (1, Fraction(1, 2)) and p != Scalar.exact(1)
    assert p == Polynomial.from_fractions([1, Fraction(1, 2), 0])
    assert hash(p) == hash(Polynomial.from_fractions([1, Fraction(1, 2), 0]))
    assert len({p, Polynomial.from_fractions([1, Fraction(1, 2)])}) == 1


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
    for k in range(1, 65, 7):
        x = Scalar.exact(k, 65)
        # a tabulated copy of p takes the difference-quotient branch of q_derivative
        tabulated = FunctionSpec.tabulated({t: p.eval(t) for t in (x, ctx.q * x)})
        assert derived.eval(x) == q_derivative(tabulated, x, ctx)


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


# -- raw-value algebra against a reference that works one Scalar at a time ----------


def ref_add(a, b, op=operator.add):
    n = max(len(a.coeffs), len(b.coeffs))
    return Polynomial([op(a.coefficient(i), b.coefficient(i)) for i in range(n)], a.backend)


def ref_mul(a, b):
    if a.is_zero or b.is_zero:
        return Polynomial.zero(a.backend)
    out = [Scalar.zero(a.backend)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x.is_zero:
            continue
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Polynomial(out, a.backend)


def ref_compose_affine(p, a, b):
    inner, acc = Polynomial((b, a), p.backend), Polynomial.zero(p.backend)
    for c in reversed(p.coeffs):
        acc = ref_add(ref_mul(acc, inner), Polynomial((c,), p.backend))
    return acc


def ref_contract_form(coeffs, images):
    m, b = len(coeffs) - 1, images[0].backend
    acc = Polynomial.zero(b)
    for j, (c, img) in enumerate(zip(coeffs, images)):
        acc = ref_add(acc, ref_mul(Polynomial([Scalar.zero(b)] * (m - j) + [c], b), img))
    return acc


def _random_value(rng, backend):
    roll = rng.random()
    if roll < 0.2:
        return Scalar.zero(backend)
    if backend is Backend.EXACT:
        return Scalar.exact(rng.randint(-7, 7), rng.randint(1, 9))
    if roll < 0.25:
        return Scalar.floating(-0.0)
    return Scalar.floating(rng.uniform(-3.0, 3.0))


def _random_poly(rng, backend):
    coeffs = [_random_value(rng, backend) for _ in range(rng.randint(0, 6))]
    coeffs += [Scalar.zero(backend)] * rng.randint(0, 2)  # the constructor strips these
    return Polynomial(coeffs, backend)


def _same(got, want):
    assert type(got) is Polynomial and got.backend is want.backend
    assert all(type(c) is Scalar and c.backend is got.backend for c in got.coeffs)
    if got.backend is Backend.EXACT:
        assert all(type(c.value) is Fraction for c in got.coeffs)
        assert got == want
    else:
        assert [c.value.hex() for c in got.coeffs] == [c.value.hex() for c in want.coeffs]


@pytest.mark.parametrize("backend", list(Backend))
def test_raw_value_algebra_matches_scalar_reference(backend):
    rng = random.Random(20261018 if backend is Backend.EXACT else 17)
    ctx = QContext.exact(2, 5) if backend is Backend.EXACT else QContext.floating(0.37)
    cancellations = 0
    for _ in range(150):
        a, b = _random_poly(rng, backend), _random_poly(rng, backend)
        # same top coefficient as a, so a - top cancels to a lower degree
        top = Polynomial([_random_value(rng, backend) for _ in a.coeffs[1:]] + list(a.coeffs[-1:]),
                         backend)
        s, t = _random_value(rng, backend), _random_value(rng, backend)
        cases = [
            (a + b, ref_add(a, b)),
            (a - b, ref_add(a, b, operator.sub)),
            (a - a, Polynomial.zero(backend)),
            (a - top, ref_add(a, top, operator.sub)),
            (a + (-a), ref_add(a, Polynomial([-c for c in a.coeffs], backend))),
            (-a, Polynomial([-c for c in a.coeffs], backend)),
            (a * b, ref_mul(a, b)),
            (a.scale(s), Polynomial([c * s for c in a.coeffs], backend)),
            (a.scale(3), Polynomial([c * 3 for c in a.coeffs], backend)),
            (a.q_derivative(ctx), Polynomial([ctx.q_int(m) * a.coeffs[m]
                                        for m in range(1, len(a.coeffs))], backend)),
            (a.compose_affine(s, t), ref_compose_affine(a, s, t)),
        ]
        k = rng.randint(0, 3)
        zeros = [Scalar.zero(backend)] * k
        cases.append((a.shift_up(k), a if a.is_zero else Polynomial(zeros + list(a.coeffs), backend)))
        form = [_random_value(rng, backend) for _ in range(rng.randint(1, 5))]
        images = [_random_poly(rng, backend) for _ in form]
        cases.append((contract_form(form, images), ref_contract_form(form, images)))
        for got, want in cases:
            _same(got, want)
        cancellations += (a - top).degree < a.degree
    assert cancellations > 100


def test_contract_form_examples_and_refusals():
    # t^2 - x t, that is t (t - x), against the images 1, 1/2 + x, x^2 of 1, t, t^2
    form = (Scalar.exact(0), Scalar.exact(-1), Scalar.exact(1))
    images = [Polynomial.from_fractions(v) for v in ([1], [Fraction(1, 2), 1], [0, 0, 1])]
    assert contract_form(form, images) == Polynomial.from_fractions([0, Fraction(-1, 2)])
    with pytest.raises(DomainError):
        contract_form(form, images[:2])
    with pytest.raises(DomainError):
        contract_form((), [])
    with pytest.raises(BackendMismatchError):
        contract_form((Scalar.floating(1.0),), images[:1])
    with pytest.raises(BackendMismatchError):
        contract_form(form[:2], [images[0], Polynomial((Scalar.floating(1.0),))])


def test_scale_lifts_its_factor_like_a_scalar_operand():
    exact = Polynomial.from_fractions([1, 2])
    assert exact.scale(Fraction(1, 2)) == Polynomial.from_fractions([Fraction(1, 2), 1])
    assert exact.scale(3) == Polynomial.from_fractions([3, 6])
    floats = Polynomial((Scalar.floating(1.5), Scalar.floating(-2.0)))
    assert floats.scale(2) == Polynomial((Scalar.floating(3.0), Scalar.floating(-4.0)))
    with pytest.raises(BackendMismatchError):
        floats.scale(Fraction(1, 2))
    with pytest.raises(BackendMismatchError):
        exact.scale(Scalar.floating(2.0))
    with pytest.raises(TypeError):
        exact.scale("2")
    with pytest.raises(TypeError):
        exact.scale(None)


def test_public_constructor_still_checks_its_coefficients():
    with pytest.raises(TypeError):
        Polynomial([Fraction(1)], Backend.EXACT)
    with pytest.raises(TypeError):
        Polynomial([Scalar.exact(1), 2])
    with pytest.raises(BackendMismatchError):
        Polynomial([Scalar.exact(1), Scalar.floating(1.0)])
    with pytest.raises(BackendMismatchError):
        Polynomial([Scalar.floating(1.0)], Backend.EXACT)
