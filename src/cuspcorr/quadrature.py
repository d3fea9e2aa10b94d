"""Panel Gauss-Legendre quadrature for smooth, possibly oscillatory integrands.

Panels are sized so the fastest phase is sampled at >= 8 nodes per period
(16-node panels, at most two periods per panel), then the panel count is
doubled until two successive refinements agree to the requested absolute
tolerance.  Integrands are numpy-vectorized callables and may be complex.
`osc_quad_rows` integrates many integrands at once, one per row, each row
refined on its own; `osc_quad` is its one-row case.  It is the package's
one adaptive integrator: the Mellin transform, w*, the dot and tilde
transforms, the first contour leg and the Voronoi dual side all go through
it.  `gl_nodes_weights` is the fixed rule of the remaining contour legs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ContractError, NumericsError

GL_ORDER = 16
_MAX_DOUBLINGS = 9
_GRID_VALUES = 8192  # nodes per osc_quad_rows block; Bessel arguments per grid call for callers that batch rows


@lru_cache(maxsize=None)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False  # the cache hands these same arrays to every caller
    w.flags.writeable = False
    return x, w


def panel_rule(a, b, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat nodes and weights of `panels` equal GL_ORDER-node panels on [a, b].

    Each panel is mapped with the same float operations as
    gl_nodes_weights, so the rule equals the concatenated per-panel rules
    bit for bit.  Array endpoints give one rule per entry, along a new last
    axis; the edges are np.linspace's (arange times step, plus a, with b as
    the last edge) taken per entry, so each rule equals the scalar rule of
    its endpoints bit for bit.
    """
    x0, w0 = _gl_nodes(GL_ORDER)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    edges = np.arange(panels + 1.0) * ((b - a) / panels)[..., None] + a[..., None]
    edges[..., -1] = b
    lo, hi = edges[..., :-1, None], edges[..., 1:, None]
    half = 0.5 * (hi - lo)
    shape = a.shape + (-1,)
    return (0.5 * (lo + hi) + half * x0).reshape(shape), (half * w0).reshape(shape)


def _row_sums(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-row sum of values * weights over the last axis.  einsum takes no
    BLAS route, so a row's sum has the same bits in any batch of rows."""
    return np.einsum("...i,...i->...", values, weights)


def osc_quad_rows(f, a, b, cycles, tol: float = 1e-10) -> np.ndarray:
    """Integrate row i of f over [a[i], b[i]] for every row at once.

    a, b and cycles are 1-D per-row arrays (or numbers, broadcast).
    f(x, rows) receives the (len(rows), nodes) array of nodes and the
    indices of those rows, and returns values of the same shape, of one
    dtype (real or complex) in every call.  Each row starts from
    osc_quad's panel count for its `cycles` and doubles it until two
    successive rules agree to `tol`; rows with equal start counts run
    together, in blocks of at most _GRID_VALUES nodes (at least one row).
    f must treat rows independently; then each row's value equals the
    one-row call's bit for bit.  Rows with b <= a are 0; a non-finite a,
    b or cycles is a ContractError.
    """
    a, b, cycles = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=np.float64))
                                         for v in (a, b, cycles)))
    if not np.isfinite([a, b, cycles]).all():
        raise ContractError("quadrature needs finite endpoints and cycle counts")
    start = np.maximum(1, np.ceil(cycles / 2.0) + 1).astype(np.int64)
    live = np.flatnonzero(b > a)
    out = None

    def integrate(rows: np.ndarray, panels: int) -> np.ndarray:
        step = max(1, _GRID_VALUES // (panels * GL_ORDER))
        sums = []
        for i in range(0, rows.size, step):
            block = rows[i:i + step]
            x, w = panel_rule(a[block], b[block], panels)
            sums.append(_row_sums(np.asarray(f(x, block)), w))
        return np.concatenate(sums)

    for panels in sorted(set(start[live].tolist())):
        rows = live[start[live] == panels]
        prev = integrate(rows, panels)
        if out is None:
            out = np.zeros(a.shape, dtype=prev.dtype)
        for _ in range(_MAX_DOUBLINGS):
            panels *= 2
            cur = integrate(rows, panels)
            delta = np.abs(cur - prev)
            done = delta <= tol
            out[rows[done]] = cur[done]
            rows, prev, delta = rows[~done], cur[~done], delta[~done]
            if rows.size == 0:
                break
        else:
            i = rows[0]
            raise NumericsError(
                f"quadrature did not reach tol={tol:g} on [{a[i]:g},{b[i]:g}] "
                f"(last delta {delta[0]:.3e})"
            )
    return np.zeros(a.shape) if out is None else out


def osc_quad(f, a: float, b: float, cycles: float = 0.0, tol: float = 1e-10):
    """Integrate f over [a, b]; `cycles` = total phase turns of the fastest
    oscillation across the interval.  Absolute tolerance.  The one-row case
    of osc_quad_rows."""
    if b <= a:
        return 0.0 + 0.0j if np.iscomplexobj(f(np.array([a]))) else 0.0
    return osc_quad_rows(lambda x, rows: np.asarray(f(x[0]))[None], a, b, cycles, tol)[0]


def gl_nodes_weights(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre rule mapped to [a, b]; column arrays of
    endpoints (shape (rows, 1)) give one rule per row."""
    x0, w0 = _gl_nodes(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x0, half * w0
