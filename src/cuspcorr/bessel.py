"""J-Bessel evaluation by three mutually checking strategies.

* power series around 0, with a running cancellation monitor;
* Hankel large-argument asymptotics, with a smallest-term error monitor;
* the cosine integral representation
      J_nu(x) = (1/pi) * int_0^pi cos(nu xi - x sin xi) d xi   (minus an
  exponential tail for non-integer nu), evaluated by the trapezoid rule,
  which is superconvergent here because every odd derivative of the
  integrand vanishes at both endpoints.

The integral route is uniformly accurate over the whole desk-scale range
and acts as the arbiter; series and asymptotics are fast paths that are
only trusted when their own error monitors say so.  The classical
switchover "series below max(2 nu, 20), asymptotics above" loses all
precision for nu >= 12 (the series cancels like I_nu(x) ~ e^x near
x = 2 nu and the Hankel expansion diverges immediately there), so zone
boundaries here are accuracy-driven instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

_SERIES_CANCEL_LIMIT = 1e4      # max-term / result before the series is rejected
_HANKEL_MINTERM = 1e-15         # smallest asymptotic term we must reach
_UNDERFLOW_LOG = -745.0
_GRID_VALUES = 8192             # arguments per grid call for callers that batch rows


def _series_zone(nu: float) -> float:
    return max(2.0 * math.sqrt(nu + 1.0), 9.0)


def _hankel_zone(nu: float) -> float:
    return max(22.0, 0.2 * nu * nu)


def j_series(nu: float, x: float) -> tuple[float, bool]:
    """Ascending series with cancellation monitor; (value, trustworthy)."""
    if x == 0.0:
        return (1.0 if nu == 0.0 else 0.0), True
    log_t0 = nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)
    if log_t0 < _UNDERFLOW_LOG:
        return 0.0, True  # below 1e-300: zero at double precision
    t = math.exp(log_t0)
    total = t
    largest = abs(t)
    q = 0.25 * x * x
    m = 0
    while m < 600:
        m += 1
        t = -t * q / (m * (nu + m))
        total += t
        mag = abs(t)
        if mag > largest:
            largest = mag
        if mag < 1e-17 * max(largest, abs(total)) and m > 3:
            ok = largest <= _SERIES_CANCEL_LIMIT * max(abs(total), 1e-280)
            return total, ok
    return total, False


def j_hankel(nu: float, x: float) -> tuple[float, bool]:
    """Hankel asymptotic expansion with smallest-term monitor.

    P = sum (-1)^j a_{2j}/x^{2j}, Q = sum (-1)^j a_{2j+1}/x^{2j+1} with
    a_m = prod_{i<=m} (4 nu^2 - (2i-1)^2) / (m! 8^m); trusted only when
    the terms reach 1e-15 before the asymptotic divergence sets in.
    """
    if x <= 0.0:
        return 0.0, False
    mu = 4.0 * nu * nu
    p_sum = 1.0
    q_sum = (mu - 1.0) / (8.0 * x)
    term = q_sum
    prev = abs(term) if term != 0.0 else 1.0
    min_term = prev
    ok = prev < _HANKEL_MINTERM
    k = 1
    while k < 200 and not ok:
        k += 1
        term = term * (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        mag = abs(term)
        if mag >= prev:  # divergence onset: stop before the blow-up
            break
        if k % 2 == 0:
            p_sum += -term if k % 4 == 2 else term
        else:
            q_sum += -term if (k - 1) % 4 == 2 else term
        min_term = min(min_term, mag)
        prev = mag
        if mag < _HANKEL_MINTERM:
            ok = True
    chi = x - (0.5 * nu + 0.25) * math.pi
    value = math.sqrt(2.0 / (math.pi * x)) * (math.cos(chi) * p_sum - math.sin(chi) * q_sum)
    return value, ok


def _trapezoid_nodes(nu: float, xmax):
    """Trapezoid intervals for arguments up to xmax (a number or an array)."""
    return np.maximum(64, (3.2 * (nu + np.asarray(xmax))).astype(np.int64) + 1)


def _noninteger_tail(nu: float, x: float) -> float:
    # int_0^inf exp(-nu t - x sinh t) dt; the integrand decays at least
    # like exp(-(nu + x) t), so this truncation is conservative.
    upper = 50.0 / max(nu + x, 1.0) + 5.0
    t = np.linspace(0.0, upper, 2000)
    g = np.exp(-nu * t - x * np.sinh(np.minimum(t, 700.0)))
    return float(np.trapezoid(g, t))


def j_integral(nu: float, x: float) -> float:
    """Cosine integral representation by superconvergent trapezoid."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    m = _trapezoid_nodes(nu, x)
    xi = np.linspace(0.0, math.pi, m + 1)
    f = np.cos(nu * xi - x * np.sin(xi))
    value = (np.sum(f) - 0.5 * (f[0] + f[-1])) / m
    if abs(nu - round(nu)) > 1e-12:
        value -= math.sin(nu * math.pi) / math.pi * _noninteger_tail(nu, x)
    return float(value)


def _series_grid(nu: float, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ascending series; returns (values, trusted mask)."""
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
    for m in range(1, 601):
        t = -t * q / (m * (nu + m))
        total += t
        np.maximum(largest, np.abs(t), out=largest)
        if m > 3 and np.all(np.abs(t) < 1e-17 * np.maximum(largest, np.abs(total))):
            break
    trusted = largest <= _SERIES_CANCEL_LIMIT * np.maximum(np.abs(total), 1e-280)
    out = np.zeros_like(x)
    out[:] = np.where(live, total, 0.0)
    vals[pos] = out
    okx = np.where(live, trusted, True)
    ok[pos] = okx
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


def _integral_grid(nu: float, xs: np.ndarray) -> np.ndarray:
    if xs.size == 0:
        return xs.copy()
    m = _trapezoid_nodes(nu, float(xs.max()))
    xi = np.linspace(0.0, math.pi, m + 1)
    f = np.cos(nu * xi[None, :] - xs[:, None] * np.sin(xi)[None, :])
    vals = (f.sum(axis=1) - 0.5 * (f[:, 0] + f[:, -1])) / m
    if abs(nu - round(nu)) > 1e-12:
        vals = vals - np.array(
            [math.sin(nu * math.pi) / math.pi * _noninteger_tail(nu, float(x)) for x in xs]
        )
    zero = xs == 0.0
    if np.any(zero):
        vals[zero] = 1.0 if nu == 0.0 else 0.0
    return vals


@dataclass(frozen=True)
class BesselKernel:
    """Evaluation strategy for J_nu with accuracy-driven zone boundaries."""

    nu: float
    series_cutoff: float
    hankel_cutoff: float

    @classmethod
    def of(cls, nu: float) -> "BesselKernel":
        if nu < 0:
            raise ContractError("order must be >= 0")
        return cls(nu=float(nu), series_cutoff=_series_zone(nu), hankel_cutoff=_hankel_zone(nu))

    def strategy(self, x: float) -> str:
        if x <= self.series_cutoff:
            return "series"
        if x >= self.hankel_cutoff:
            return "asymptotic"
        return "integral"

    def __call__(self, x: float) -> float:
        if not x >= 0:  # NaN included
            raise ContractError("argument must be >= 0")
        which = self.strategy(x)
        if which == "series":
            value, ok = j_series(self.nu, x)
            if ok:
                return value
        elif which == "asymptotic":
            value, ok = j_hankel(self.nu, x)
            if ok:
                return value
        return j_integral(self.nu, x)

    def grid(self, xs) -> np.ndarray:
        """Vectorized evaluation over an array of arguments.

        Each 1-D slice along the last axis is a row (a 1-D argument is one
        row), and rows do not interact: the integral route sizes its
        trapezoid rule by each row's largest integral-route argument and
        serves rows of equal node counts together, so a value never depends
        on the other rows of its call.
        """
        arr = np.asarray(xs, dtype=np.float64)
        flat = arr.ravel().copy()
        if not np.all(flat >= 0):  # NaN included
            raise ContractError("argument must be >= 0")
        out = np.empty_like(flat)
        need_exact = np.zeros(flat.shape, dtype=bool)

        small = flat <= self.series_cutoff
        if np.any(small):
            vals, ok = _series_grid(self.nu, flat[small])
            out[small] = vals
            bad = np.zeros(flat.shape, dtype=bool)
            bad[small] = ~ok
            need_exact |= bad

        large = flat >= self.hankel_cutoff
        if np.any(large):
            vals, ok = _hankel_grid(self.nu, flat[large])
            out[large] = vals
            bad = np.zeros(flat.shape, dtype=bool)
            bad[large] = ~ok
            need_exact |= bad

        need_exact |= ~small & ~large
        idx = np.nonzero(need_exact)[0]
        if idx.size:
            exact = flat[idx]
            rows = idx // (arr.shape[-1] if arr.ndim else 1)
            starts = np.flatnonzero(np.diff(rows, prepend=-1))
            nodes = _trapezoid_nodes(self.nu, np.maximum.reduceat(exact, starts))
            per_arg = np.repeat(nodes, np.diff(starts, append=idx.size))
            for m in set(nodes.tolist()):
                pick = per_arg == m
                out[idx[pick]] = _integral_grid(self.nu, exact[pick])
        return out.reshape(arr.shape)


def bessel_j(nu: float, x: float) -> float:
    """J_nu(x) for real nu >= 0, x >= 0."""
    return BesselKernel.of(nu)(x)


def bessel_j_grid(nu: float, xs) -> np.ndarray:
    return BesselKernel.of(nu).grid(xs)
