"""Smooth compactly supported weights and their integral transforms.

Contents: the canonical exponential bump on [1,2]; smooth plateau
windows; Mellin evaluation; the transform
  wstar(z, w) = int W(y) J_nu(4 pi sqrt(y w + z)) dy
with its two-term oscillatory decomposition; and the holomorphic / Maass
integral transforms attached to a scaled, twisted test function
  phi(x) = exp(+-i alpha x) w0(x/Z) (x/Z)^(i tau).

The Maass-side transform needs (J_{2it} - J_{-2it})/sinh(pi t); via a
Mehler-Sonine representation this equals -(4i/pi) * int_0^inf
cos(x cosh u) cos(2 t u) du, which we evaluate on a bent contour
(real leg, quarter-turn, then parallel to the real axis at height pi/2
where cosh picks up a decaying real exponential).  No complex-order
Bessel function is ever evaluated directly.

The transforms take a number or an array for the swept variable (z, k or
t) and integrate the whole array in one `osc_quad_rows` call, one row per
value; the Maass kernel runs over the (x, t) pairs of every outer node at
once.  Rows do not interact, so a value has the same bits in any grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bessel import BesselKernel, bessel_j_orders
from .errors import ContractError, NumericsError
from .quadrature import _GRID_VALUES, _row_sums, gl_nodes_weights, osc_quad, osc_quad_rows

__all__ = [
    "SmoothWindow", "bump_window", "plateau_window", "mellin_at",
    "w_star", "extract_oscillatory_parts",
    "TransformKernel", "kuznetsov_transform_dot", "kuznetsov_transform_tilde",
]

TWO_PI = 2.0 * math.pi
_U_FLOOR = 1.0 / 700.0  # the bump exp(-1/u) is taken as 0 below this (exp(-700) ~ 1e-304)
_TRANSFORM_TOL = 1e-10  # absolute tolerance of w_star and the two Kuznetsov transforms


@dataclass(frozen=True)
class SmoothWindow:
    """Compactly supported smooth weight: base_value on its support."""

    base_value: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]

    def __call__(self, x):
        return self.base_value(np.asarray(x, dtype=np.float64))

    value = __call__


def _bump_value(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    u = (x - 1.0) * (2.0 - x)
    inside = u > _U_FLOOR
    out = np.zeros(x.shape, dtype=np.float64)
    if np.any(inside):
        ui = u[inside]
        out[inside] = np.exp(-1.0 / ui)
    return out


def bump_window() -> SmoothWindow:
    """The canonical bump exp(-1/((x-1)(2-x))) on (1,2), zero elsewhere."""
    return SmoothWindow(_bump_value, (1.0, 2.0))


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity monotone 0 -> 1 on [0,1] built from the exponential bump."""
    t = np.clip(t, 0.0, 1.0)
    def b(s):
        out = np.zeros_like(s)
        pos = s > _U_FLOOR
        out[pos] = np.exp(-1.0 / s[pos])
        return out
    num = b(t)
    den = num + b(1.0 - t)
    with np.errstate(invalid="ignore"):
        r = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return r


def plateau_window(a: float, b: float, c: float, d: float) -> SmoothWindow:
    """Smooth window: 0 outside (a,d), 1 on [b,c], monotone in between."""
    if not (a < b <= c < d):
        raise ContractError("need a < b <= c < d")

    def value(x):
        x = np.asarray(x, dtype=np.float64)
        rise = _smoothstep((x - a) / (b - a))
        fall = _smoothstep((d - x) / (d - c))
        return rise * fall

    return SmoothWindow(value, (a, d))


def mellin_at(window: SmoothWindow, s: complex) -> complex:
    """Mellin transform int W(x) x^(s-1) dx over the window support."""
    s = complex(s)
    lo, hi = window.support

    def integrand(x):
        return window(x) * np.exp((s - 1.0) * np.log(x))

    cycles = abs(s.imag) * math.log(hi / lo) / TWO_PI
    return complex(osc_quad(integrand, lo, hi, cycles=cycles, tol=1e-12))


def _per_point(arg, values: np.ndarray):
    """values as one complex number when the swept argument was a number."""
    return complex(values[0]) if np.ndim(arg) == 0 else values


def w_star(window: SmoothWindow, kappa: int, z, w: float):
    """int W(y) J_(kappa-1)(4 pi sqrt(y w + z)) dy over the support of W.

    z is a number (the value is a complex number) or an array (an array of
    values, from w_star_grid).  Requires z >= 4|w| > 0, which keeps the
    Bessel argument away from the origin for either sign of w.
    """
    return _per_point(z, w_star_grid(window, kappa, z, w))


def w_star_grid(window: SmoothWindow, kappa: int, z_grid, w: float) -> np.ndarray:
    """w_star at every z of an array, each with its own adaptive rule
    (osc_quad_rows); a value does not depend on the rest of the grid."""
    z = np.atleast_1d(np.asarray(z_grid, dtype=np.float64))
    if w == 0.0 or not np.all(z >= 4.0 * abs(w)):  # NaN fails too
        raise ContractError("w_star requires z >= 4|w| > 0")
    kernel = BesselKernel.of(kappa - 1)
    lo, hi = window.support

    def integrand(y, rows):
        arg = 4.0 * math.pi * np.sqrt(y * w + z[rows, None])
        return window(y) * kernel.grid(arg)

    # phase 2 sqrt(yw+z) has derivative w / sqrt(yw+z) <= |w| / sqrt(z/2)
    cycles = abs(w) / np.sqrt(0.5 * z) * (hi - lo)
    vals = osc_quad_rows(integrand, lo, hi, cycles, tol=_TRANSFORM_TOL)
    return vals.astype(np.complex128)


def extract_oscillatory_parts(window: SmoothWindow, kappa: int, w: float,
                              z_grid: np.ndarray, samples: np.ndarray | None = None):
    """Fit wstar samples to  W+ z^(-1/4) e(2 sqrt z) + W- z^(-1/4) e(-2 sqrt z).

    The grid must resolve e(2 sqrt z): spacing <= sqrt(z)/4 locally.  The
    fit is complex least squares over windows of about 1.5 oscillations;
    returns (W+ samples, W- samples, max abs residual), the coefficient
    arrays being window-constant.  `samples` overrides the wstar values
    (used to feed synthetic models in tests).
    """
    z = np.asarray(z_grid, dtype=np.float64)
    if z.ndim != 1 or z.size < 8:
        raise ContractError("need a 1-d grid with at least 8 points")
    if np.any(np.diff(z) <= 0):
        raise ContractError("grid must be strictly increasing")
    spacing = np.diff(z)
    if np.any(spacing > np.sqrt(z[:-1]) / 4.0 * (1.0 + 1e-12)):
        raise ContractError("grid too coarse: need >= 4 points per oscillation of e(2 sqrt z)")

    if samples is None:
        samples = w_star_grid(window, kappa, z, w)
    vals = np.asarray(samples, dtype=np.complex128)
    if vals.shape != z.shape:
        raise ContractError("samples must match the grid")

    phase = 2.0 * np.sqrt(z)  # in cycles
    wplus = np.empty(z.size, dtype=np.complex128)
    wminus = np.empty(z.size, dtype=np.complex128)
    start = 0
    max_resid = 0.0
    degree = 3  # the amplitudes drift slowly; a local cubic absorbs it
    while start < z.size:
        # window of ~2.5 oscillations, enough points for 2(degree+1) unknowns
        end = start + 1
        while end < z.size and (phase[end] - phase[start] < 2.5 or end - start < 4 * (degree + 1)):
            end += 1
        if z.size - end < 4 * (degree + 1):  # absorb the remainder into the last window
            end = z.size
        idx = slice(start, end)
        zz = z[idx]
        npts = zz.size
        deg = min(degree, max(0, npts // 4 - 1))
        b_plus = zz ** -0.25 * np.exp(2j * math.pi * 2.0 * np.sqrt(zz))
        u = (zz - zz.mean()) / max(zz.max() - zz.min(), 1e-300)  # scaled local coordinate
        cols = [b_plus * u ** j for j in range(deg + 1)]
        cols += [np.conj(b_plus) * u ** j for j in range(deg + 1)]
        design = np.stack(cols, axis=1)
        sol, _, rank, sing = np.linalg.lstsq(design, vals[idx], rcond=None)
        if rank < design.shape[1] or sing[-1] < 1e-10 * sing[0]:
            raise NumericsError("ill-conditioned oscillatory fit (grid too coarse)")
        poly_p = sum(sol[j] * u ** j for j in range(deg + 1))
        poly_m = sum(sol[deg + 1 + j] * u ** j for j in range(deg + 1))
        wplus[idx] = poly_p
        wminus[idx] = poly_m
        max_resid = max(max_resid, float(np.max(np.abs(design @ sol - vals[idx]))))
        start = end
    return wplus, wminus, max_resid


@dataclass(frozen=True)
class TransformKernel:
    """phi(x) = exp(sign * i alpha x) w0(x/Z) (x/Z)^(i tau), supported on
    [Z, 2Z] for the canonical bump w0."""

    Z: float
    alpha: float = 0.0
    tau: float = 0.0
    sign: int = +1
    window: SmoothWindow = field(default_factory=bump_window)

    def __post_init__(self):
        if self.Z <= 0:
            raise ContractError("scale Z must be positive")
        if abs(self.alpha) > 0.8:
            raise ContractError("|alpha| <= 4/5 required")
        if self.sign not in (-1, +1):
            raise ContractError("sign must be +-1")

    @property
    def support(self) -> tuple[float, float]:
        lo, hi = self.window.support
        return lo * self.Z, hi * self.Z

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        scaled = x / self.Z
        base = self.window(scaled).astype(np.complex128)
        phase = self.sign * self.alpha * x
        if self.tau != 0.0:
            safe = np.where(scaled > 0, scaled, 1.0)
            phase = phase + self.tau * np.log(safe)
        return base * np.exp(1j * phase)

    def zero(self) -> "TransformKernel":
        """Same shape with an identically-zero window (test hook)."""
        zero_win = SmoothWindow(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                                self.window.support)
        return TransformKernel(self.Z, self.alpha, self.tau, self.sign, zero_win)

    def x_cycles(self) -> float:
        lo, hi = self.support
        return ((1.0 + abs(self.alpha)) / TWO_PI + abs(self.tau) / (TWO_PI * lo + 1e-300)) * (hi - lo)


def kuznetsov_transform_dot(phi: TransformKernel, k):
    """4 i^k int phi(x) J_(k-1)(x) dx / x for even k >= 2.

    k is a number (the value is a complex number) or an array (an array of
    values).  Every k shares one rule per refinement level, so phi(x)/x and
    the Bessel values of every order come from one evaluation per level.
    """
    ks = np.atleast_1d(np.asarray(k)).tolist()
    if not all(kk >= 2 and kk % 2 == 0 for kk in ks):
        raise ContractError("holomorphic transform needs even k >= 2")
    orders = [kk - 1 for kk in ks]
    lo, hi = phi.support
    level = (0, None, None)  # node count of the current rule, phi(x)/x and J on it

    def integrand(x, rows):
        nonlocal level
        nodes = x[0]  # every row has the same rule
        if level[0] != nodes.size:
            level = (nodes.size, phi(nodes) / nodes, bessel_j_orders(orders, nodes))
        return level[1] * level[2][rows]

    vals = osc_quad_rows(integrand, np.full(len(ks), lo), hi, phi.x_cycles(), tol=_TRANSFORM_TOL)
    return _per_point(k, np.array([4.0 * (1j ** int(kk)) * complex(v)
                                   for kk, v in zip(ks, vals.tolist())]))


def dot_decay_slope(phi: TransformKernel) -> dict:
    """Fitted slope of log|dot(k)| against log(1 + k/Z) at 12 geometric
    points of k in [2 ceil(Z), 20 ceil(Z)], rounded to even k >= 2.

    Values are clipped at 1e-250 before taking logs (the transform
    underflows to exact zero once k is a few multiples of Z); the clip
    only makes the fitted slope less negative.
    """
    Z = phi.Z
    ceil_z = int(math.ceil(Z))  # >= 1, since TransformKernel requires Z > 0
    ks = sorted({2 * int(round(k / 2)) for k in np.geomspace(2 * ceil_z, 20 * ceil_z, 12)})
    mags = np.maximum(np.abs(kuznetsov_transform_dot(phi, ks)), 1e-250)
    lx = np.log1p(np.array(ks, dtype=float) / Z)
    slope = float(np.polyfit(lx, np.log(mags), 1)[0])
    return {"slope": slope, "k": ks, "magnitude": mags.tolist()}


_LEG_NODES = 48  # Gauss-Legendre nodes on each of the two closing legs of the contour


def _cos_cosh_rows(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """int_0^inf cos(x cosh u) cos(2 t u) du via a bent contour, for each
    pair (x[i], t[i]) of two 1-D arrays (x > 0).

    Pairs do not interact, so a pair's value has the same bits in any batch.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if not np.all(x > 0):
        raise ContractError("kernel defined for x > 0")
    # leg 3 becomes negligible once x sinh A >= 40 + pi |t|
    A = np.arcsinh((40.0 + math.pi * np.abs(t)) / x)

    def leg1(u, rows):
        return np.exp(1j * x[rows, None] * np.cosh(u)) * np.cos(2.0 * t[rows, None] * u)

    cycles1 = x * np.sinh(A) * A / TWO_PI + 1.0
    i1 = osc_quad_rows(leg1, 0.0, A, cycles1, tol=1e-12)

    s, ws = gl_nodes_weights(0.0, 0.5 * math.pi, _LEG_NODES)
    v_hi = np.maximum(np.arcsinh(745.0 / x), A + 1e-6)
    out = np.empty(x.shape)
    step = max(1, _GRID_VALUES // _LEG_NODES)
    for i in range(0, x.size, step):
        xb, tb, Ab = x[i:i + step, None], t[i:i + step, None], A[i:i + step, None]
        # vertical quarter-turn u = A + i s, s in [0, pi/2]
        uu = Ab + 1j * s
        i2 = 1j * _row_sums(np.exp(1j * xb * np.cosh(uu)) * np.cos(2.0 * tb * uu), ws)
        # horizontal leg u = v + i pi/2: cosh -> i sinh v, pure decay
        v, wv = gl_nodes_weights(Ab, v_hi[i:i + step, None], _LEG_NODES)
        uu = v + 0.5j * math.pi
        i3 = _row_sums(np.exp(-xb * np.sinh(v)) * np.cos(2.0 * tb * uu), wv)
        out[i:i + step] = (i1[i:i + step] + i2 + i3).real
    return out


def maass_bessel_kernel(x: float, t: float) -> complex:
    """(J_{2it}(x) - J_{-2it}(x)) / sinh(pi t), continued to t = 0."""
    return -4j / math.pi * float(_cos_cosh_rows(np.array([x]), np.array([t]))[0])


def kuznetsov_transform_tilde(phi: TransformKernel, t):
    """2 pi i int phi(x) (J_{2it} - J_{-2it})(x) / sinh(pi t) dx / x.

    Evaluates to 8 int phi(x) C(x,t) dx/x with the real cosine kernel C.
    t is a number (the value is a complex number) or an array (an array of
    values); the kernel runs over the (x, t) pairs of all outer nodes at
    once.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    lo, hi = phi.support

    def integrand(x, rows):
        kern = _cos_cosh_rows(x.ravel(), np.repeat(ts[rows], x.shape[1]))
        return phi(x) * kern.reshape(x.shape) / x

    cycles = phi.x_cycles() + (hi - lo) / TWO_PI  # kernel itself turns like e^(ix)
    vals = osc_quad_rows(integrand, np.full(ts.size, lo), hi, cycles, tol=_TRANSFORM_TOL)
    return _per_point(t, 8.0 * vals.astype(np.complex128))
