"""Computable objects around shifted convolutions of Hecke eigenform
coefficients: exact q-expansions, Kloosterman/Ramanujan sums, a
Farey-interval circle method, Voronoi summation, Bessel transforms, the
Petersson spectral identity, and the experiment harness tying them together.
"""

__version__ = "0.1.0"

from .arith import euler_phi, kloosterman, moebius, ramanujan_sum
from .bessel import BesselKernel, bessel_j, bessel_j_orders
from .coeffs import Eigenform, divisor_sieve, make_eigenform
from .errors import ContractError, EmptyCoverError, InsufficientCoefficients, NumericsError
from .windows import SmoothWindow, TransformKernel, bump_window, mellin_at, plateau_window, w_star

__all__ = [
    "__version__",
    "Eigenform", "make_eigenform", "divisor_sieve", "euler_phi", "moebius",
    "ramanujan_sum", "kloosterman", "BesselKernel", "bessel_j", "bessel_j_orders",
    "SmoothWindow", "bump_window", "plateau_window", "mellin_at", "w_star",
    "TransformKernel", "ContractError", "EmptyCoverError",
    "InsufficientCoefficients", "NumericsError",
]
