"""J-Bessel evaluation for integer orders: one vectorised evaluator over three routes.

* power series around 0, with a running cancellation monitor;
* Hankel large-argument asymptotics, with a smallest-term error monitor;
* Miller's backward recurrence J_(k-1) = (2k/x) J_k - J_(k+1), started
  beyond the turning point and normalised by J_0^2 + 2 sum J_k^2 = 1
  (J. C. P. Miller, Bessel Functions, Part II, 1952; W. Gautschi,
  "Computational aspects of three-term recurrence relations", SIAM Review
  9, 1967).

The recurrence is uniformly accurate over the whole desk-scale range and
serves every value the fast paths may not: the arguments between their
zones and those their own error monitors reject.  The classical
switchover "series below max(2 nu, 20), asymptotics above" loses all
precision for nu >= 12 (the series cancels like I_nu(x) ~ e^x near
x = 2 nu and the Hankel expansion diverges immediately there), so zone
boundaries here are accuracy-driven instead.

Orders are integers, since the holomorphic machinery needs only J_(k-1)
for an integer weight k.  `bessel_j_orders` serves many orders at the same
arguments, `BesselKernel.grid` is its one-order case and `bessel_j` its
one-value case; a value does not depend on how it was asked for.  The
routes the recurrence replaced are test oracles (`tests/oracles.py`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericsError

_SERIES_CANCEL_LIMIT = 1e4      # max-term / result before the series is rejected
_HANKEL_MINTERM = 1e-15         # smallest asymptotic term we must reach
_UNDERFLOW_LOG = -745.0


def _series_zone(nu: float) -> float:
    return max(2.0 * math.sqrt(nu + 1.0), 9.0)


def _hankel_zone(nu: float) -> float:
    return max(22.0, 0.2 * nu * nu)


def _series_grid(nu: float, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ascending series; returns (values, trusted mask).

    Each argument stops at its own first negligible term, as
    `oracles.j_series` does, so a value does not depend on the other
    arguments of the call.
    """
    vals = np.zeros_like(xs)
    ok = np.ones(xs.shape, dtype=bool)
    pos = xs > 0.0
    if nu == 0.0:
        vals[~pos] = 1.0
    x = xs[pos]
    if x.size == 0:
        return vals, ok
    log_t0 = nu * np.log(0.5 * x) - math.lgamma(nu + 1.0)
    live = log_t0 >= _UNDERFLOW_LOG  # others underflow to exactly 0
    t = np.where(live, np.exp(np.maximum(log_t0, _UNDERFLOW_LOG)), 0.0)
    total = t.copy()
    largest = np.abs(t)
    q = 0.25 * x * x
    active = live.copy()
    for m in range(1, 601):
        t = -t * q / (m * (nu + m))
        total += t
        np.maximum(largest, np.abs(t), out=largest)
        if m > 3:
            active &= np.abs(t) >= 1e-17 * np.maximum(largest, np.abs(total))
            if not active.any():
                break
            t *= active  # a stopped argument adds only zeros from here on
    trusted = ~active & (largest <= _SERIES_CANCEL_LIMIT * np.maximum(np.abs(total), 1e-280))
    vals[pos] = total  # 0 where the first term underflowed
    ok[pos] = trusted
    return vals, ok


def _hankel_grid(nu: float, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Hankel expansion; returns (values, trusted mask)."""
    x = np.maximum(xs, 1e-300)
    mu = 4.0 * nu * nu
    p_sum = np.ones_like(x)
    q_sum = (mu - 1.0) / (8.0 * x)
    term = q_sum.copy()
    prev = np.where(term != 0.0, np.abs(term), 1.0)
    ok = prev < _HANKEL_MINTERM
    active = ~ok
    for k in range(2, 200):
        term *= (mu - (2 * k - 1) ** 2) / (k * 8.0)
        term /= x
        mag = np.abs(term)
        active &= mag < prev  # divergence onset: stop before the blow-up
        if k % 2 == 0:
            total, subtract = p_sum, k % 4 == 2
        else:
            total, subtract = q_sum, (k - 1) % 4 == 2
        (np.subtract if subtract else np.add)(total, term, where=active, out=total)
        converged = active & (mag < _HANKEL_MINTERM)
        ok |= converged
        active &= ~converged
        prev = mag  # entries that left `active` never read prev again
        if not np.any(active):
            break
    chi = x - (0.5 * nu + 0.25) * math.pi
    vals = np.sqrt(2.0 / (math.pi * x)) * (np.cos(chi) * p_sum - np.sin(chi) * q_sum)
    return vals, ok


# Miller's start K(x).  Past the turning point J_n(x) ~ (2/x)^(1/3) Ai(z), n =
# x + s x^(1/3), z = 2^(1/3) s, and Ai(z) <= exp(-(2/3) z^(3/2)) / (2 sqrt(pi)
# z^(1/4)); this bound at 2^-53, with z^(1/4) at z = 14, gives s(x).  The offset
# covers small x, where J decays more slowly than the Airy scaling: the largest
# shortfall of x + s(x) x^(1/3) against scipy over 0 < x <= 20000 is 3.9.
_START_LOG = 53.0 * math.log(2.0) - math.log(2.0 * math.sqrt(math.pi) * 14.0 ** 0.25)
_START_OFFSET = 4.0


def _miller_start(x: np.ndarray) -> np.ndarray:
    """Even start order K(x), with |J_n(x)| <= 2^-53 for every n >= K(x)."""
    s = (1.5 * (_START_LOG - np.log(0.5 * x) / 3.0)) ** (2.0 / 3.0) / 2.0 ** (1.0 / 3.0)
    return 2 * np.ceil(0.5 * (x + s * np.cbrt(x) + _START_OFFSET)).astype(np.int64)


def _miller(orders: list[int], x: np.ndarray) -> np.ndarray:
    """J_n(x) for every n of `orders` (rows) and every x > 0 (columns).

    Each argument runs down from its own seed J_K = 1, J_(K+1) = 0 at
    K = K(x), and is exactly 0 before it, so its values do not depend on
    the rest of the call.  Orders above K(x) are 0.
    """
    start = _miller_start(x)
    seeds, wanted = set(start.tolist()), set(orders)
    orders = np.asarray(orders)
    out = np.zeros((orders.size, x.size))
    f_next = np.zeros_like(x)  # J_(k+1), unnormalised
    f = np.zeros_like(x)  # J_k
    squares = np.zeros_like(x)  # sum of J_k^2 over k >= 1
    evens = np.zeros_like(x)  # sum of J_k over even k >= 2
    for k in range(int(start.max()), 0, -1):
        if k in seeds:
            f += start == k  # J_K = 1 where K(x) = k; f is still 0 there
        if k in wanted:
            out[orders == k] = f
        squares += f * f
        if k % 2 == 0:
            evens += f
        f, f_next = (2.0 * k) / x * f - f_next, f
    out[orders == 0] = f
    norm = 2.0 * squares + f * f
    if not np.all(np.isfinite(norm)):
        raise NumericsError("Miller recurrence overflowed")
    # J_0^2 + 2 sum J_k^2 = 1 sets the scale, J_0 + 2 sum J_2k = 1 its sign
    return out * np.copysign(1.0 / np.sqrt(norm), f + 2.0 * evens)


@dataclass(frozen=True)
class BesselKernel:
    """J_nu for an integer order nu >= 0, with accuracy-driven zone boundaries."""

    nu: float
    series_cutoff: float
    hankel_cutoff: float

    @classmethod
    def of(cls, nu) -> "BesselKernel":
        """The kernel of an integer order nu >= 0; an integral float such as
        11.0 is accepted, any other order is a ContractError."""
        if not (isinstance(nu, numbers.Real) and nu >= 0 and float(nu).is_integer()):
            raise ContractError(f"order must be an integer >= 0, got {nu!r}")
        nu = float(nu)
        return cls(nu=nu, series_cutoff=_series_zone(nu), hankel_cutoff=_hankel_zone(nu))

    def grid(self, xs) -> np.ndarray:
        """J_nu at every argument of an array: bessel_j_orders's one-order case."""
        return bessel_j_orders((self.nu,), xs)[0]


def bessel_j_orders(orders, x) -> np.ndarray:
    """J_n(x) for every integer order n >= 0 of `orders` and every x >= 0 of
    an array, with shape (len(orders),) + x.shape.

    Each order takes the series and Hankel values its zones and monitors
    allow; the arguments left over for any order share one recurrence
    sweep.  Each value equals the one-order, one-argument call bit for bit.
    """
    kernels = [BesselKernel.of(n) for n in np.atleast_1d(orders).tolist()]
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.ravel()
    if not np.all(flat >= 0):  # NaN included
        raise ContractError("argument must be >= 0")
    out = np.empty((len(kernels), flat.size))
    need = np.zeros(out.shape, dtype=bool)
    for row, kernel in enumerate(kernels):
        small = flat <= kernel.series_cutoff
        if np.any(small):
            out[row, small], ok = _series_grid(kernel.nu, flat[small])
            need[row, small] = ~ok
        large = flat >= kernel.hankel_cutoff
        if np.any(large):
            out[row, large], ok = _hankel_grid(kernel.nu, flat[large])
            need[row, large] = ~ok
        need[row] |= ~small & ~large  # between the zones
    cols = np.flatnonzero(need.any(axis=0))
    if cols.size:
        exact = _miller([int(kernel.nu) for kernel in kernels], flat[cols])
        out[:, cols] = np.where(need[:, cols], exact, out[:, cols])
    return out.reshape((len(kernels),) + arr.shape)


def bessel_j(nu: int, x: float) -> float:
    """J_nu(x) for an integer order nu >= 0 and x >= 0: the grid evaluator on one value."""
    return float(BesselKernel.of(nu).grid(x))
