"""Each typed refusal of the library raises its own error type and message."""

from fractions import Fraction

import pytest

from qdurrmeyer.asymptotics import QSequence, decay_slope, q_taylor_remainder
from qdurrmeyer.errors import BackendMismatchError, DomainError
from qdurrmeyer.moments import (
    central_factor_expand,
    central_moment,
    raw_moment_brute,
    raw_moment_closed,
    stated_central_moment,
    stated_raw_moment,
)
from qdurrmeyer.operators import (
    OperatorSpec,
    bernstein_basis,
    durrmeyer_apply_fn,
    durrmeyer_apply_poly,
    kernel_mass,
)
from qdurrmeyer.polyalg import Polynomial
from qdurrmeyer.qcore import (
    Backend,
    FunctionSpec,
    QContext,
    Scalar,
    jackson_integral,
    jackson_series,
    q_derivative,
)

E = QContext.exact(1, 2)
F = QContext.floating(0.5)
SPEC = OperatorSpec(2, E)
P = Polynomial.monomial(2, Backend.EXACT)
P_FLOAT = Polynomial.monomial(2, Backend.FLOAT)
X = Scalar.exact(1, 2)
HALF = Scalar.floating(0.5)
EXP = FunctionSpec.builtin("exp")
# t -> t on the exact Jackson nodes: a truncated series of it would pass for exact
T_EXACT = FunctionSpec.tabulated({E.q_power(j): E.q_power(j) for j in range(200)})
TRUNCATED = "a truncated Jackson series is not exact; use the float backend"

# (id, the refused call, error type, message)
REFUSALS = [
    ("raw-brute-n0", lambda: raw_moment_brute(0, 1, E),
     DomainError, "moment degree n must be >= 1"),
    ("raw-closed-m-neg", lambda: raw_moment_closed(2, -1, E),
     DomainError, "moment order m must be >= 0"),
    ("central-factor-neg", lambda: central_factor_expand(-1, E),
     DomainError, "central factor order must be >= 0"),
    ("central-m0", lambda: central_moment(2, 0, E),
     DomainError, "central moments start at m = 1"),
    ("central-route", lambda: central_moment(2, 1, E, route="bogus"),
     DomainError, "unknown central-moment route 'bogus'"),
    ("stated-raw-m5", lambda: stated_raw_moment(2, 5, E),
     DomainError, "quoted raw-moment forms cover m in {2, 3, 4}"),
    ("stated-central-m5", lambda: stated_central_moment(2, 5, E),
     DomainError, "quoted central forms cover m in 1..4"),
    ("kernel-index", lambda: kernel_mass(SPEC, 3),
     DomainError, "kernel index needs 0 <= k <= n, got k=3 n=2"),
    ("apply-float-poly", lambda: durrmeyer_apply_poly(SPEC, P_FLOAT),
     BackendMismatchError, "polynomial backend differs from context"),
    ("stancu-float-params",
     lambda: OperatorSpec(2, E, Scalar.floating(0.0), Scalar.floating(1.0)),
     BackendMismatchError, "alpha/beta backend must match the context"),
    ("basis-float-x", lambda: bernstein_basis(SPEC, 0, HALF),
     BackendMismatchError, "evaluation point backend differs from context"),
    ("poly-empty", lambda: Polynomial([]),
     DomainError, "zero polynomial needs an explicit backend"),
    ("monomial-neg", lambda: Polynomial.monomial(-1, Backend.EXACT),
     DomainError, "monomial degree must be nonnegative"),
    ("poly-plus-int", lambda: P + 1,
     TypeError, "expected a Polynomial"),
    ("poly-q-derivative-float", lambda: P.q_derivative(F),
     BackendMismatchError, "context backend differs"),
    ("poly-compose-float",
     lambda: P.compose_affine(Scalar.floating(1.0), Scalar.floating(0.0)),
     BackendMismatchError, "affine parameters backend differs"),
    ("scalar-backend", lambda: Scalar(1, "x"),
     TypeError, "unknown backend 'x'"),
    ("scalar-plus-float", lambda: Scalar.exact(1) + 0.5,
     BackendMismatchError, "cannot mix a float with an exact scalar"),
    ("scalar-fraction-power", lambda: Scalar.exact(2) ** Fraction(1, 2),
     TypeError, "Scalar exponents must be ints"),
    ("context-bare-q", lambda: QContext(0.5),
     TypeError, "q must be a Scalar"),
    ("context-scalar-float", lambda: E.scalar(HALF),
     BackendMismatchError, "scalar backend does not match context"),
    ("tabulated-empty", lambda: FunctionSpec.tabulated({}),
     DomainError, "tabulated spec needs at least one point"),
    ("derivative-order-3", lambda: EXP.classical_derivative(HALF, 3),
     DomainError, "derivative order must be 1 or 2"),
    ("derivative-tabulated",
     lambda: FunctionSpec.tabulated({HALF: Scalar.floating(1.0)}).classical_derivative(HALF, 1),
     DomainError, "tabulated functions have no derivative rule"),
    ("derivative-exact-x", lambda: EXP.classical_derivative(X, 1),
     BackendMismatchError, "builtin derivatives need the float backend"),
    ("derivative-abs-shift-kink",
     lambda: FunctionSpec.builtin("abs-shift").classical_derivative(HALF, 1),
     DomainError, "abs-shift is not differentiable at 0.5"),
    ("q-derivative-order-3", lambda: q_derivative(P, X, E, order=3),
     DomainError, "q-derivative order must be 1 or 2"),
    ("q-derivative-x2", lambda: q_derivative(P, Scalar.exact(2), E),
     DomainError, "q-derivative is evaluated on [0, 1]"),
    ("jackson-zero-tol", lambda: jackson_series(EXP.evaluate, F, tol=0.0),
     DomainError, "Jackson tolerance must be positive"),
    ("jackson-exact", lambda: jackson_series(EXP.evaluate, E),
     BackendMismatchError, TRUNCATED),
    ("jackson-exact-tabulated", lambda: jackson_integral(T_EXACT, E),
     BackendMismatchError, TRUNCATED),
    ("apply-fn-exact-tabulated", lambda: durrmeyer_apply_fn(SPEC, T_EXACT, X),
     BackendMismatchError, TRUNCATED),
    ("jackson-float-poly", lambda: jackson_integral(P_FLOAT, E),
     BackendMismatchError, "polynomial backend differs from context"),
    ("power-decay-0", lambda: QSequence.power_decay(0),
     DomainError, "power_decay needs p >= 1"),
    ("slope-one-n", lambda: decay_slope(2, X, QSequence.power_decay(2), [8]),
     DomainError, "need at least two n values for a slope"),
    ("slope-vanished", lambda: decay_slope(1, Scalar.exact(64, 91), QSequence.power_decay(2), [2, 4]),
     DomainError, "central moment vanished at n=2; slope undefined"),
    ("q-sequence-stuck", lambda: QSequence("stuck", lambda n, b: Scalar.exact(1)).value(4),
     DomainError, "q sequence left (0, 1) at n=4: 1"),
    ("q-taylor-t2", lambda: q_taylor_remainder(P, X, Scalar.exact(2), E),
     DomainError, "t must lie in [0, 1]"),
]


@pytest.mark.parametrize("call, error, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusal_raises_its_type_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
