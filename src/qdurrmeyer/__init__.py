"""Exact and numerical evaluation of q-Durrmeyer-type positive linear operators.

The package computes images and moments of the q-Durrmeyer operator, its
Stancu generalization, and the classical q = 1 operator; cross-verifies
every closed-form moment identity against independent routes (kernel sums,
a moment recurrence, product expansions); and tabulates the
Voronovskaja-type scaled deviations against their second-order limits.

`build_report` resolves lazily: the invariant suite in `verify` is imported
on first access, so `import qdurrmeyer` and every CLI command but `verify` leave it unloaded.
"""

from .errors import (
    BackendMismatchError,
    DomainError,
    JacksonTruncationError,
    OriginDerivativeError,
    SingularRemainderError,
)
from .qcore import (
    Backend,
    FunctionSpec,
    QContext,
    Scalar,
    jackson_integral,
    q_beta,
    q_derivative,
    q_pochhammer_one_minus,
)
from .polyalg import Polynomial
from .operators import (
    OperatorSpec,
    bernstein_basis,
    classical_durrmeyer_apply,
    durrmeyer_apply_fn,
    durrmeyer_apply_poly,
    kernel_mass,
)
from .moments import (
    central_factor_expand,
    central_moment,
    raw_moment_brute,
    raw_moment_closed,
    raw_moment_recurrence,
    stancu_central_moment,
    stancu_moment,
    transcription_audit,
)
from .asymptotics import (
    ConvergenceRow,
    QSequence,
    convergence_grid,
    convergence_table,
    q_taylor_remainder,
    voronovskaja_lhs,
    voronovskaja_rhs,
)

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "Scalar",
    "QContext",
    "FunctionSpec",
    "Polynomial",
    "OperatorSpec",
    "ConvergenceRow",
    "QSequence",
    "q_pochhammer_one_minus",
    "q_derivative",
    "jackson_integral",
    "q_beta",
    "bernstein_basis",
    "kernel_mass",
    "durrmeyer_apply_poly",
    "durrmeyer_apply_fn",
    "classical_durrmeyer_apply",
    "raw_moment_brute",
    "raw_moment_closed",
    "raw_moment_recurrence",
    "central_factor_expand",
    "central_moment",
    "stancu_moment",
    "stancu_central_moment",
    "transcription_audit",
    "voronovskaja_lhs",
    "voronovskaja_rhs",
    "convergence_grid",
    "convergence_table",
    "q_taylor_remainder",
    "build_report",
    "BackendMismatchError",
    "DomainError",
    "JacksonTruncationError",
    "OriginDerivativeError",
    "SingularRemainderError",
    "__version__",
]


def __getattr__(name):
    if name == "build_report":
        from .verify import build_report
        return build_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "build_report"})
