"""Two-sided numerical verification of summation duality for eigenform
coefficients twisted by additive characters.

The direct side sums lambda(n) e(bn/c) V(n/N) over the support of V; the
dual side exchanges it for a lambda(n) e(-bbar n/c) sum against the
Bessel transform (N/c) 2 pi i^kappa int V(x) J_(kappa-1)(4 pi
sqrt(nNx)/c) dx.  Agreement of the two sides is an exact identity, so the
relative error measures only truncation and quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import BesselKernel
from .coeffs import Eigenform, make_eigenform
from .errors import ContractError, InsufficientCoefficients, NumericsError
from .quadrature import panel_rule
from .windows import SmoothWindow, bump_window

EPS0 = 1e-300
_TERM_FLOOR = 1e-13   # dual terms below floor * scale are treated as tail
_CONSECUTIVE = 12     # how many consecutive tiny terms end the scan
_QUAD_TOL = 1e-11     # absolute tolerance of each dual integral


@dataclass
class VoronoiInstance:
    form: Eigenform
    b: int
    c: int
    N: float
    V: SmoothWindow = field(default_factory=bump_window)
    rhs_truncation: int | None = None

    def __post_init__(self):
        if self.c < 1:
            raise ContractError("modulus c must be >= 1")
        if math.gcd(self.b, self.c) != 1:
            raise ContractError("need gcd(b, c) = 1")
        if self.N <= 0:
            raise ContractError("scale N must be positive")


def voronoi_instance(weight: int, b: int, c: int, N: float, **kw) -> VoronoiInstance:
    """Instance backed by a cached eigenform table sized for the direct side."""
    lo, hi = kw.get("V", bump_window()).support
    form = make_eigenform(weight, int(math.ceil(N * hi)) + 1)
    return VoronoiInstance(form=form, b=b, c=c, N=N, **kw)


def _phase_table(c: int) -> np.ndarray:
    return np.exp(2j * math.pi * np.arange(c) / c)


def voronoi_lhs(inst: VoronoiInstance) -> complex:
    """sum_n lambda(n) e(bn/c) V(n/N) over the support of V."""
    lo, hi = inst.V.support
    n_lo = max(1, math.ceil(inst.N * lo))
    n_hi = math.floor(inst.N * hi)
    if n_hi < n_lo:
        return 0.0 + 0.0j
    inst.form.require(n_hi)
    n = np.arange(n_lo, n_hi + 1)
    lam = inst.form.lam[n_lo:n_hi + 1]
    v = inst.V(n / inst.N)
    table = _phase_table(inst.c)
    phases = table[(inst.b % inst.c) * n % inst.c]
    return complex(np.sum(lam * v * phases))


def _dual_integral(kernel: BesselKernel, V: SmoothWindow, A: float, tol: float) -> complex:
    """int V(x) J_nu(A sqrt(x)) dx over supp V, with A-aware paneling."""
    lo, hi = V.support
    cycles = A * (math.sqrt(hi) - math.sqrt(lo)) / (2.0 * math.pi) + 1.0
    panels = max(4, math.ceil(cycles))

    def integrate(n_panels: int):
        xs, ws = panel_rule(lo, hi, n_panels)
        return np.sum(V(xs) * kernel.grid(A * np.sqrt(xs)) * ws)

    first = integrate(panels)
    # one refinement as an error estimate
    second = integrate(2 * panels)
    if abs(second - first) > max(tol, 1e-14 * abs(second)):
        third = integrate(4 * panels)
        if abs(third - second) > max(tol, 1e-13 * abs(third)):
            raise NumericsError(f"dual integral not converged at A={A:g}")
        return complex(third)
    return complex(second)


def _dual_term(inst: VoronoiInstance, kernel: BesselKernel, lam_src: Eigenform,
               table: np.ndarray, bbar: int, n: int) -> complex:
    A = 4.0 * math.pi * math.sqrt(n * inst.N) / inst.c
    integral = _dual_integral(kernel, inst.V, A, _QUAD_TOL)
    phase = np.conj(table[(bbar % inst.c) * n % inst.c])
    return complex(lam_src.lam[n] * phase * integral)


def voronoi_rhs(inst: VoronoiInstance) -> tuple[complex, dict]:
    """Dual sum; returns (value, diagnostics).

    With rhs_truncation set, exactly that many dual terms are used.
    Otherwise the scan stops after _CONSECUTIVE dual terms fall below the
    term floor relative to the running scale, then continues to twice the
    stopping point as a certified margin (the doubling-stability property
    checks that this margin is already negligible).
    """
    kappa = inst.form.weight
    kernel = BesselKernel.of(kappa - 1)
    bbar = pow(inst.b % inst.c, -1, inst.c) if inst.c > 1 else 0
    prefactor = (inst.N / inst.c) * 2.0 * math.pi * (1j ** kappa)
    table = _phase_table(inst.c)

    lam_src = inst.form

    def ensure(n):
        nonlocal lam_src
        if n > lam_src.length:
            if not lam_src.canonical:
                raise InsufficientCoefficients(
                    f"dual side needs lambda({n}); custom form has {lam_src.length}"
                )
            lam_src = make_eigenform(kappa, max(2 * n, 1024))

    terms: list[complex] = []
    if inst.rhs_truncation is not None:
        ensure(inst.rhs_truncation)
        for n in range(1, inst.rhs_truncation + 1):
            terms.append(_dual_term(inst, kernel, lam_src, table, bbar, n))
        n_stop = inst.rhs_truncation
        tail_margin = float("nan")
    else:
        scale = 0.0
        quiet = 0
        n_stop = None
        n = 0
        hard_cap = 200000
        while n < hard_cap:
            n += 1
            if n_stop is not None and n > 2 * n_stop:
                break
            ensure(n)
            term = _dual_term(inst, kernel, lam_src, table, bbar, n)
            terms.append(term)
            mag = abs(term)
            scale = max(scale, mag)
            if n_stop is None:
                if mag < _TERM_FLOOR * (scale + 1.0):
                    quiet += 1
                    if quiet >= _CONSECUTIVE and n >= 8:
                        n_stop = n
                else:
                    quiet = 0
        if n_stop is None:
            raise NumericsError("dual sum did not decay within the hard cap")
        tail_margin = float(np.sum(np.abs(terms[n_stop:]))) * abs(prefactor)
    total = prefactor * np.sum(np.asarray(terms))
    diag = {
        "n_terms": len(terms),
        "n_stop": n_stop,
        "tail_margin": tail_margin,
        "prefactor": complex(prefactor),
    }
    return complex(total), diag


def voronoi_check(inst: VoronoiInstance) -> dict:
    """Relative error |LHS - RHS| / (|LHS| + |RHS| + eps0) plus diagnostics."""
    lhs = voronoi_lhs(inst)
    rhs, diag = voronoi_rhs(inst)
    err = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + EPS0)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "relative_error": err,
        "diagnostics": diag,
    }
