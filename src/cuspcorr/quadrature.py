"""Panel Gauss-Legendre quadrature for smooth, possibly oscillatory integrands.

Panels are sized so the fastest phase is sampled at >= 8 nodes per period
(16-node panels, at most two periods per panel), then the panel count is
doubled until two successive refinements agree to the requested absolute
tolerance.  Integrands are numpy-vectorized callables and may be complex.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NumericsError

GL_ORDER = 16
_MAX_DOUBLINGS = 9


@lru_cache(maxsize=None)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False  # the cache hands these same arrays to every caller
    w.flags.writeable = False
    return x, w


def panel_rule(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat nodes and weights of `panels` equal GL_ORDER-node panels on [a, b].

    Each panel is mapped with the same float operations as
    gl_nodes_weights, so the rule equals the concatenated per-panel rules
    bit for bit.
    """
    x0, w0 = _gl_nodes(GL_ORDER)
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi) + half * x0).ravel(), (half * w0).ravel()


def osc_quad(f, a: float, b: float, cycles: float = 0.0, tol: float = 1e-10):
    """Integrate f over [a, b]; `cycles` = total phase turns of the fastest
    oscillation across the interval.  Absolute tolerance."""
    if b <= a:
        return 0.0 + 0.0j if np.iscomplexobj(f(np.array([a]))) else 0.0

    def integrate(panels: int):
        x, w = panel_rule(a, b, panels)
        return np.asarray(f(x)) @ w

    panels = max(1, math.ceil(cycles / 2.0) + 1)
    prev = integrate(panels)
    for _ in range(_MAX_DOUBLINGS):
        panels *= 2
        cur = integrate(panels)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    raise NumericsError(
        f"quadrature did not reach tol={tol:g} on [{a:g},{b:g}] "
        f"(last delta {abs(cur - prev):.3e})"
    )


def gl_nodes_weights(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre rule mapped to [a, b]."""
    x0, w0 = _gl_nodes(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x0, half * w0
