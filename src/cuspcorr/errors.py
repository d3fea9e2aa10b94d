"""Exception hierarchy shared by all modules.

Contract violations (bad arguments, broken preconditions) and numerical
failures (quadrature or fit non-convergence) are kept distinct so the CLI
can map them to different exit codes.
"""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class InsufficientCoefficients(ContractError):
    """An operation needs more eigenform coefficients than were generated."""


class EmptyCoverError(ContractError):
    """A Farey cover was requested with identically-zero weights."""


class NumericsError(RuntimeError):
    """Quadrature, series, or least-squares machinery failed to converge, or
    a computation failed its own accuracy check."""
