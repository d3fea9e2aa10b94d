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
from .quadrature import _GRID_VALUES, panel_rule
from .windows import SmoothWindow, bump_window

EPS0 = 1e-300
_TERM_FLOOR = 1e-13   # dual terms below floor * scale are treated as tail
_CONSECUTIVE = 12     # how many consecutive tiny terms end the scan
_QUAD_TOL = 1e-11     # absolute tolerance of each dual integral
_FIRST_BLOCK = 32     # dual terms in the first block; each later block doubles
_HARD_CAP = 200000    # most dual terms a scan may compute


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


def _rule_sums(kernel: BesselKernel, V: SmoothWindow, A: np.ndarray,
               panel_counts: list[int]) -> list[np.ndarray]:
    """sum V(x) J_nu(A sqrt(x)) w over the panel rule of each count, for every A.

    The rules share each kernel.grid call, which takes as many rows of A as
    fit in about _GRID_VALUES arguments (at least one row).
    """
    rules = [panel_rule(*V.support, p) for p in panel_counts]
    roots = np.sqrt(np.concatenate([xs for xs, _ in rules]))
    step = max(1, _GRID_VALUES // roots.size)
    weighted = [(V(xs), ws) for xs, ws in rules]
    sums = [np.empty(A.size, dtype=np.result_type(v, ws)) for v, ws in weighted]
    for i in range(0, A.size, step):
        J = kernel.grid(A[i:i + step, None] * roots)
        col = 0
        for out, (v, ws) in zip(sums, weighted):
            out[i:i + step] = np.sum(v * J[:, col:col + ws.size] * ws, axis=1)
            col += ws.size
    return sums


def _dual_integral(kernel: BesselKernel, V: SmoothWindow, A: np.ndarray, tol: float) -> np.ndarray:
    """int V(x) J_nu(A sqrt(x)) dx over supp V for each A of an ascending
    array, with A-aware paneling.

    Each A gets max(4, ceil(cycles)) panels and one refinement at twice as
    many as an error estimate; only the A whose two values disagree get a
    third rule with four times as many.  Panel counts grow with A, so equal
    counts form consecutive runs, and each run shares its rules, its window
    values and its Bessel calls.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.size == 0:
        return np.zeros(0)
    lo, hi = V.support
    cycles = A * (math.sqrt(hi) - math.sqrt(lo)) / (2.0 * math.pi) + 1.0
    panels = np.maximum(4, np.ceil(cycles)).astype(np.int64)
    edges = [0, *(np.flatnonzero(np.diff(panels)) + 1).tolist(), A.size]
    out = []
    for i, j in zip(edges[:-1], edges[1:]):
        p, a = int(panels[i]), A[i:j]
        first, second = _rule_sums(kernel, V, a, [p, 2 * p])
        redo = np.abs(second - first) > np.maximum(tol, 1e-14 * np.abs(second))
        if np.any(redo):
            (third,) = _rule_sums(kernel, V, a[redo], [4 * p])
            failed = np.abs(third - second[redo]) > np.maximum(tol, 1e-13 * np.abs(third))
            if np.any(failed):
                raise NumericsError(f"dual integral not converged at A={a[redo][failed][0]:g}")
            second[redo] = third
        out.append(second)
    return np.concatenate(out)


def voronoi_rhs(inst: VoronoiInstance) -> tuple[complex, dict]:
    """Dual sum; returns (value, diagnostics).

    With rhs_truncation set, exactly that many dual terms are used.
    Otherwise the scan stops after _CONSECUTIVE dual terms fall below the
    term floor relative to the running scale, then continues to twice the
    stopping point as a certified margin (the doubling-stability property
    checks that this margin is already negligible).  Terms are computed in
    blocks of n (_FIRST_BLOCK, then doubling); terms of the last block
    beyond twice the stopping point are dropped.
    """
    kappa = inst.form.weight
    kernel = BesselKernel.of(kappa - 1)
    bbar = pow(inst.b % inst.c, -1, inst.c) if inst.c > 1 else 0
    prefactor = (inst.N / inst.c) * 2.0 * math.pi * (1j ** kappa)
    table = _phase_table(inst.c)

    lam_src = inst.form

    def dual_terms(n_lo: int, n_hi: int) -> np.ndarray:
        nonlocal lam_src
        if n_hi > lam_src.length:
            if not lam_src.canonical:
                raise InsufficientCoefficients(
                    f"dual side needs lambda({n_hi}); custom form has {lam_src.length}"
                )
            lam_src = make_eigenform(kappa, max(2 * n_hi, 1024))
        n = np.arange(n_lo, n_hi + 1)
        A = 4.0 * math.pi * np.sqrt(n * inst.N) / inst.c
        integral = _dual_integral(kernel, inst.V, A, _QUAD_TOL)
        phase = np.conj(table[(bbar % inst.c) * n % inst.c])
        return lam_src.lam[n_lo:n_hi + 1] * phase * integral

    if inst.rhs_truncation is not None:
        terms = dual_terms(1, inst.rhs_truncation)
        n_stop = inst.rhs_truncation
        tail_margin = float("nan")
    else:
        blocks = []
        scale = 0.0
        quiet = 0
        n_stop = None
        n_done = 0
        size = _FIRST_BLOCK
        while n_stop is None:
            if n_done >= _HARD_CAP:
                raise NumericsError("dual sum did not decay within the hard cap")
            n_hi = min(n_done + size, _HARD_CAP)
            if not lam_src.canonical:  # ask a custom form for no more than it has
                n_hi = min(n_hi, max(lam_src.length, n_done + 1))
            blocks.append(dual_terms(n_done + 1, n_hi))
            for n, mag in enumerate(np.abs(blocks[-1]).tolist(), n_done + 1):
                scale = max(scale, mag)
                if mag < _TERM_FLOOR * (scale + 1.0):
                    quiet += 1
                    if quiet >= _CONSECUTIVE and n >= 8:
                        n_stop = n
                        break
                else:
                    quiet = 0
            n_done = n_hi
            size *= 2
        n_terms = min(2 * n_stop, _HARD_CAP)
        if n_done < n_terms:
            blocks.append(dual_terms(n_done + 1, n_terms))
        terms = np.concatenate(blocks)[:n_terms]
        tail_margin = float(np.sum(np.abs(terms[n_stop:]))) * abs(prefactor)
    total = prefactor * np.sum(terms)
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
