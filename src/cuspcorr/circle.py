"""Farey-interval approximation of the unit-interval indicator.

The approximation places an interval of half-width delta around every
reduced fraction d/c with denominator weighted by w(c) = w0(c/Q), and
normalizes by 2 delta Lambda with Lambda = sum_c w(c) phi(c).  Overlaps
accumulate additively, and intervals straddling 0 or 1 are wrapped, so
the total mass over [0,1) is exactly 1 by construction.

Interval endpoints are exact rationals (delta is snapped to a dyadic with
60 fractional bits), so the sweep line orders them by an integer key and a
fraction r/c with no ambiguity, and the L2 error is a finite sum over its
segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import mu_phi_sieve, ramanujan_weighted
from .errors import ContractError, EmptyCoverError

_DYADIC_BITS = 60


def snap_dyadic(delta: float) -> Fraction:
    """Nearest dyadic rational with 60 fractional bits."""
    return Fraction(round(delta * 2 ** _DYADIC_BITS), 2 ** _DYADIC_BITS)


@dataclass
class FareyCover:
    """Weighted Farey-interval cover of [0,1)."""

    Q: float
    delta: Fraction
    weights: dict[int, float]      # c -> w(c), only nonzero entries
    Lambda: float
    phi: dict[int, int]            # c -> phi(c)

    @property
    def n_intervals(self) -> int:
        return sum(self.phi[c] for c in self.weights)

    def height_unit(self) -> float:
        """1 / (2 delta Lambda): the height contributed per unit weight."""
        return 1.0 / (2.0 * float(self.delta) * self.Lambda)


def build_cover(w0, Q: float, delta: float) -> FareyCover:
    """Cover with weights w(c) = w0(c/Q) for c in [Q, 2Q], half-width delta.

    w0 is called once, on the array of every c/Q, and must return the array
    of weights, each in [0,1] (a SmoothWindow or a test hook).  delta must
    satisfy Q^-2 <= delta <= Q^-1 and is snapped to a dyadic before use.
    """
    if Q < 1:
        raise ContractError("need Q >= 1")
    d = snap_dyadic(float(delta))
    if not (Q ** -2 * (1 - 1e-9) <= float(d) <= Q ** -1 * (1 + 1e-9)):
        raise ContractError("delta must lie in [Q^-2, Q^-1]")
    cs = np.arange(math.ceil(Q), math.floor(2 * Q) + 1)
    ws = np.asarray(w0(cs / Q), dtype=np.float64)
    if ws.shape != cs.shape:
        raise ContractError("the window must return one weight per value of c/Q")
    if np.any(ws < 0) or np.any(ws > 1 + 1e-12):
        raise ContractError("weight values must lie in [0,1]")
    phis = mu_phi_sieve(math.floor(2 * Q))[1]
    keep = ws > 0.0
    cs = cs[keep].tolist()
    weights = dict(zip(cs, ws[keep].tolist()))
    phi = dict(zip(cs, phis[cs].tolist()))
    if not weights:
        raise EmptyCoverError("all weights vanish on [Q, 2Q]")
    lam = math.fsum(weights[c] * phi[c] for c in weights)
    return FareyCover(Q=Q, delta=d, weights=weights, Lambda=lam, phi=phi)


def _sweep(cover: FareyCover) -> tuple[np.ndarray, np.ndarray]:
    """The sweep line: (widths, heights) of the pieces of I~ on [0,1], in order.

    Scaled by 2^60, the endpoint d/c -+ delta is K + r/c with the integer
    K = d (2^60 // c) + d (2^60 % c) // c -+ delta 2^60 taken mod 2^60, and
    r = d (2^60 % c) % c shared by both ends.  lexsort on (K, r/c) orders
    the events exactly: distinct r/c differ by at least 1/(4 Q^2), and equal
    ones round to the same float.  Heights are in weight units: the height
    at 0 (every full turn of 2 delta >= 1, and every interval that wraps
    past 1) plus a running sum of +-w.
    """
    scale = 1 << _DYADIC_BITS
    D = int(cover.delta * scale)
    turns, rest = divmod(2 * D, scale)
    K, frac, w = [], [], []
    for c, wc in cover.weights.items():
        d = np.arange(1, c + 1, dtype=np.int64)
        d = d[np.gcd(d, c) == 1]
        q, m = divmod(scale, c)
        K.append(d * q + d * m // c)
        frac.append(d * m % c / c)
        w.append(np.full(d.size, wc))
    K, frac, w = np.concatenate(K), np.concatenate(frac), np.concatenate(w)
    lo = (K - D) % scale
    hi = (lo + rest) % scale
    start = math.fsum(w) * turns + math.fsum(w[hi < lo])
    keys, fracs = np.concatenate((lo, hi)), np.concatenate((frac, frac))
    order = np.lexsort((fracs, keys))
    keys = np.concatenate(([0], keys[order], [scale]))
    fracs = np.concatenate(([0.0], fracs[order], [0.0]))
    widths = (np.diff(keys) + np.diff(fracs)) / scale
    heights = start + np.concatenate(([0.0], np.cumsum(np.concatenate((w, -w))[order])))
    return widths, heights


def sweep_measures(cover: FareyCover) -> tuple[float, float]:
    """Exact sweep-line evaluation of (int |1-I~|^2, int I~) over [0,1]."""
    widths, heights = _sweep(cover)
    v = heights * cover.height_unit()
    return math.fsum((1.0 - v) * (1.0 - v) * widths), math.fsum(v * widths)


def l2_bound_ratio(cover: FareyCover, err: float) -> float:
    """Measured error `err` (``sweep_measures(cover)[0]``) divided by
    Q^2/(delta Lambda^2)."""
    q = cover.Q
    return err / (q * q / (float(cover.delta) * cover.Lambda ** 2))


def detect_additive(cover: FareyCover, f, g, n: int) -> complex:
    """Circle-method approximation of sum_{m1 + m2 = 2n} f(m1) g(m2).

    f and g are finitely supported sequences given as (offset, values)
    pairs or mappings {m: value}.  The detector integrates F(a) G(a)
    e(-2n a) over every Farey interval d/c + [-delta, delta], with F, G
    the twisted sums of f, g, weighted by w(c) and normalized by
    2 delta Lambda.  It is evaluated in closed form as the Ramanujan-sum
    expansion sum_k C(k) sinc(2 k delta) Lambda^-1 sum_c w(c) r_c(k), with
    C(k) = sum_{m1 + m2 = 2n + k} f(m1) g(m2): summing e(k d/c) over the
    units d mod c gives r_c(k), and the eta-average of e(k eta) over
    [-delta, delta] is exactly sinc(2 k delta).
    """
    off_f, val_f = _as_sequence(f)
    off_g, val_g = _as_sequence(g)
    if val_f.size == 0 or val_g.size == 0:
        return 0.0 + 0.0j
    conv = np.convolve(val_f, val_g)
    ks = off_f + off_g - 2 * n + np.arange(conv.size)
    w = np.zeros(max(cover.weights) + 1)
    w[list(cover.weights)] = list(cover.weights.values())
    detect = np.sinc(2.0 * float(cover.delta) * ks) * ramanujan_weighted(w, ks)
    return complex(np.dot(conv, detect) / cover.Lambda)


def _as_sequence(seq) -> tuple[int, np.ndarray]:
    if isinstance(seq, tuple) and len(seq) == 2:
        off, vals = seq
        return int(off), np.asarray(vals, dtype=np.complex128)
    if isinstance(seq, dict):
        if not seq:
            return 0, np.zeros(0, dtype=np.complex128)
        lo = min(seq)
        hi = max(seq)
        vals = np.zeros(hi - lo + 1, dtype=np.complex128)
        for m, v in seq.items():
            if m < 0:
                raise ContractError("sequence indices must be nonnegative")
            vals[m - lo] = v
        return lo, vals
    raise ContractError("sequence must be (offset, values) or {index: value}")
