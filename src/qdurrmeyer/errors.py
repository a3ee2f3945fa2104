"""Exception types shared across the package."""


class BackendMismatchError(TypeError):
    """Raised when exact and float scalars meet in one expression."""


class DomainError(ValueError):
    """Raised when an argument leaves the mathematical domain of an operation."""


class OriginDerivativeError(DomainError):
    """Raised for a black-box q-derivative at x = 0, or where its float quotient underflows."""


class SingularRemainderError(ZeroDivisionError):
    """Raised when the q-Taylor remainder is taken at t = q*x, or its float (t-x)(t-qx) is 0."""


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
