"""J-Bessel evaluation: one vectorised evaluator over three routes.

* power series around 0, with a running cancellation monitor;
* Hankel large-argument asymptotics, with a smallest-term error monitor;
* the cosine integral representation
      J_nu(x) = (1/pi) * int_0^pi cos(nu xi - x sin xi) d xi   (minus an
  exponential tail for non-integer nu).  For integer nu it is evaluated by
  the trapezoid rule, which is superconvergent here because every odd
  derivative of the integrand vanishes at both endpoints; for non-integer
  nu that fails at pi, so both integrals take Gauss-Legendre panels.

The integral route is uniformly accurate over the whole desk-scale range
and acts as the arbiter; series and asymptotics are fast paths that are
only trusted when their own error monitors say so.  The classical
switchover "series below max(2 nu, 20), asymptotics above" loses all
precision for nu >= 12 (the series cancels like I_nu(x) ~ e^x near
x = 2 nu and the Hankel expansion diverges immediately there), so zone
boundaries here are accuracy-driven instead.

`BesselKernel.grid` serves every caller, `bessel_j` included, so a value
does not depend on how it was asked for.  The scalar routes it replaced
are test oracles (`tests/oracles.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .quadrature import panel_rule

_SERIES_CANCEL_LIMIT = 1e4      # max-term / result before the series is rejected
_HANKEL_MINTERM = 1e-15         # smallest asymptotic term we must reach
_UNDERFLOW_LOG = -745.0


def _series_zone(nu: float) -> float:
    return max(2.0 * math.sqrt(nu + 1.0), 9.0)


def _hankel_zone(nu: float) -> float:
    return max(22.0, 0.2 * nu * nu)


def _trapezoid_nodes(nu: float, xmax):
    """Trapezoid intervals for arguments up to xmax (a number or an array);
    non-integer orders take an eighth as many Gauss-Legendre panels."""
    return np.maximum(64, (3.2 * (nu + np.asarray(xmax))).astype(np.int64) + 1)


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
    vals[pos] = np.where(live, total, 0.0)
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
    """The cosine integral for values that share one row's node count."""
    m = _trapezoid_nodes(nu, float(xs.max()))
    if abs(nu - round(nu)) <= 1e-12:
        xi = np.linspace(0.0, math.pi, m + 1)
        f = np.cos(nu * xi[None, :] - xs[:, None] * np.sin(xi)[None, :])
        return (f.sum(axis=1) - 0.5 * (f[:, 0] + f[:, -1])) / m
    # the odd derivatives no longer vanish at pi, so the trapezoid rule would
    # be second order only: Gauss-Legendre panels for both integrals
    xi, w = panel_rule(0.0, math.pi, m // 8)
    vals = np.cos(nu * xi[None, :] - xs[:, None] * np.sin(xi)[None, :]) @ w / math.pi
    # tail int_0^inf exp(-nu t - x sinh t) dt; the integrand decays at least
    # like exp(-(nu + x) t), so this truncation is conservative
    upper = 50.0 / np.maximum(nu + xs, 1.0) + 5.0
    u, wu = panel_rule(0.0, 1.0, 64)
    t = upper[:, None] * u[None, :]
    tail = np.exp(-nu * t - xs[:, None] * np.sinh(t)) @ wu * upper
    return vals - math.sin(nu * math.pi) / math.pi * tail


@dataclass(frozen=True)
class BesselKernel:
    """J_nu with accuracy-driven zone boundaries."""

    nu: float
    series_cutoff: float
    hankel_cutoff: float

    @classmethod
    def of(cls, nu: float) -> "BesselKernel":
        if nu < 0:
            raise ContractError("order must be >= 0")
        return cls(nu=float(nu), series_cutoff=_series_zone(nu), hankel_cutoff=_hankel_zone(nu))

    def grid(self, xs) -> np.ndarray:
        """Vectorized evaluation over an array of arguments.

        Each 1-D slice along the last axis is a row (a 1-D argument is one
        row), and rows do not interact: the integral route sizes its rule
        by each row's largest integral-route argument and serves rows of
        equal node counts together, so a value never depends on the other
        rows of its call.
        """
        arr = np.asarray(xs, dtype=np.float64)
        flat = arr.ravel()
        if not np.all(flat >= 0):  # NaN included
            raise ContractError("argument must be >= 0")
        out = np.empty_like(flat)
        need_exact = np.zeros(flat.shape, dtype=bool)

        small = flat <= self.series_cutoff
        if np.any(small):
            vals, ok = _series_grid(self.nu, flat[small])
            out[small] = vals
            need_exact[small] = ~ok

        large = flat >= self.hankel_cutoff
        if np.any(large):
            vals, ok = _hankel_grid(self.nu, flat[large])
            out[large] = vals
            need_exact[large] = ~ok

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
    """J_nu(x) for real nu >= 0, x >= 0: the grid evaluator on one value."""
    return float(BesselKernel.of(nu).grid(x))


def bessel_j_grid(nu: float, xs) -> np.ndarray:
    return BesselKernel.of(nu).grid(xs)
