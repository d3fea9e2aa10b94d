"""Farey-interval approximation of the unit-interval indicator.

The approximation places an interval of half-width delta around every
reduced fraction d/c with denominator weighted by w(c) = w0(c/Q), and
normalizes by 2 delta Lambda with Lambda = sum_c w(c) phi(c).  Overlaps
accumulate additively, and intervals straddling 0 or 1 are wrapped, so
the total mass over [0,1) is exactly 1 by construction.

Interval endpoints are exact rationals (delta is snapped to a dyadic with
60 fractional bits), which makes the L2 error a finite sum over the
segments of a sweep line with no floating-point ordering ambiguity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

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

    def intervals(self) -> Iterator[tuple[Fraction, float]]:
        """(center d/c, weight) over all reduced fractions in the cover."""
        for c in sorted(self.weights):
            w = self.weights[c]
            if c == 1:
                yield Fraction(1, 1), w
                continue
            for d in range(1, c):
                if math.gcd(d, c) == 1:
                    yield Fraction(d, c), w

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


def _as_fraction(alpha) -> Fraction:
    if isinstance(alpha, Fraction):
        return alpha
    if isinstance(alpha, int):
        return Fraction(alpha)
    return Fraction(alpha)  # floats convert exactly (dyadic)


def itilde_eval(cover: FareyCover, alpha) -> float:
    """Value at alpha, right-continuous: alpha counts in [d/c - delta, d/c + delta).

    Intervals are wrapped mod 1, matching the 1-periodicity of the
    detection target.
    """
    a = _as_fraction(alpha)
    a -= math.floor(a)
    d = cover.delta
    total = 0.0
    for c, w in cover.weights.items():
        for k in (-1, 0, 1):
            # d/c in (0,1], fraction index dd satisfies  dd/c - delta <= a + k < dd/c + delta
            lo = (a + k - d) * c   # dd > lo (strict: right-continuous at d/c + delta)
            hi = (a + k + d) * c   # dd <= hi (closed at d/c - delta)
            dd_min = math.floor(lo) + 1
            dd_max = math.floor(hi)
            for dd in range(max(dd_min, 1), min(dd_max, c) + 1):
                if math.gcd(dd, c) == 1:
                    total += w
    return total * cover.height_unit()


class _Kahan:
    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float):
        y = x - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t


def _events(cover: FareyCover) -> list[tuple[Fraction, float]]:
    """Sweep events (position, +-weight) on [0,1], wrap-split."""
    d = cover.delta
    ev: list[tuple[Fraction, float]] = []
    for center, w in cover.intervals():
        lo = center - d
        hi = center + d
        shift = math.floor(lo)
        lo -= shift
        hi -= shift
        while True:
            if hi <= 1:
                ev.append((lo, w))
                ev.append((hi, -w))
                break
            ev.append((lo, w))
            ev.append((Fraction(1), -w))
            lo = Fraction(0)
            hi -= 1
    return ev


def _segments(cover: FareyCover) -> Iterator[tuple[Fraction, Fraction, float]]:
    """The sweep line: (start, end, height) of each piece of I~ on [0,1], in order.

    Positions are exact rationals; heights use compensated accumulation of
    the float weights.
    """
    ev = _events(cover)
    ev.sort(key=lambda t: t[0])
    unit = cover.height_unit()
    height = _Kahan()
    pos = Fraction(0)
    i = 0
    n = len(ev)
    while i < n:
        p = ev[i][0]
        if p > pos:
            yield pos, p, height.s * unit
            pos = p
        while i < n and ev[i][0] == p:
            height.add(ev[i][1])
            i += 1
    if pos < 1:
        yield pos, Fraction(1), height.s * unit


def sweep_measures(cover: FareyCover) -> tuple[float, float]:
    """Exact sweep-line evaluation of (int |1-I~|^2, int I~) over [0,1]."""
    l2_terms: list[float] = []
    mass_terms: list[float] = []
    for start, end, v in _segments(cover):
        seg = float(end - start)
        l2_terms.append((1.0 - v) * (1.0 - v) * seg)
        mass_terms.append(v * seg)
    return math.fsum(l2_terms), math.fsum(mass_terms)


def l2_error(cover: FareyCover) -> float:
    """Exact int_0^1 |1 - I~(alpha)|^2 d alpha."""
    return sweep_measures(cover)[0]


def l2_bound_ratio(cover: FareyCover, err: float) -> float:
    """Measured error `err` (from ``l2_error`` or ``sweep_measures``) divided
    by Q^2/(delta Lambda^2)."""
    q = cover.Q
    return err / (q * q / (float(cover.delta) * cover.Lambda ** 2))


def step_function(cover: FareyCover) -> tuple[np.ndarray, np.ndarray]:
    """(breakpoints, heights) of I~ on [0,1): heights[i] holds on
    [breakpoints[i], breakpoints[i+1]); float positions, for grid oracles."""
    positions = [0.0]
    heights = []
    for _, end, v in _segments(cover):
        positions.append(float(end))
        heights.append(v)
    return np.asarray(positions), np.asarray(heights)


def itilde_eval_many(cover: FareyCover, alphas: np.ndarray) -> np.ndarray:
    """Float evaluation on many points via the precomputed step function."""
    pos, hts = step_function(cover)
    a = np.mod(np.asarray(alphas, dtype=np.float64), 1.0)
    idx = np.searchsorted(pos, a, side="right") - 1
    idx = np.clip(idx, 0, len(hts) - 1)
    return hts[idx]


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
