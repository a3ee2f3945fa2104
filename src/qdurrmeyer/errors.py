"""Exception types shared across the package."""


class BackendMismatchError(TypeError):
    """Raised when exact and float scalars meet in one expression."""


class DomainError(ValueError):
    """Raised when an argument leaves the mathematical domain of an operation."""


class OriginDerivativeError(DomainError):
    """Raised for a q-derivative at x = 0 of a function without a coefficient rule."""


class SingularRemainderError(ZeroDivisionError):
    """Raised when the q-Taylor remainder is evaluated on its singular set t = q*x."""


class JacksonTruncationError(ArithmeticError):
    """Raised when the Jackson series hits the term cap before reaching tolerance.

    Attributes:
        last_term: magnitude of the final summand when the cap was hit.
        terms: number of terms that were summed.
        basis_index: kernel index k when the failure happened inside an
            operator sum, else None.
    """

    def __init__(self, message, last_term=None, terms=None, basis_index=None):
        super().__init__(message)
        self.last_term = last_term
        self.terms = terms
        self.basis_index = basis_index
