"""Exact arithmetic exponential sums and multiplicative helpers.

Kloosterman sums are evaluated by direct enumeration over units mod c with
a vectorised table of unit inverses; the phase (a*d + b*dbar)/c is reduced
mod c in integer form before any trigonometry, so no precision is lost for
large c.  Weighted sums of Ramanujan sums over a range of arguments are
evaluated exactly in the weights' arithmetic by one Moebius inversion.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ContractError, NumericsError

IMAG_TOL = 1e-9


def factorize(c: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division (fine at desk scale)."""
    if c < 1:
        raise ContractError("need a positive integer")
    out = []
    for p in (2, 3):
        if c % p == 0:
            e = 0
            while c % p == 0:
                c //= p
                e += 1
            out.append((p, e))
    p = 5
    step = 2
    while p * p <= c:
        if c % p == 0:
            e = 0
            while c % p == 0:
                c //= p
                e += 1
            out.append((p, e))
        p += step
        step = 6 - step
    if c > 1:
        out.append((c, 1))
    return out


def euler_phi(c: int) -> int:
    phi = 1
    for p, e in factorize(c):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def moebius(d: int) -> int:
    fac = factorize(d)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def divisor_count(n: int) -> int:
    out = 1
    for _, e in factorize(n):
        out *= e + 1
    return out


def ramanujan_sum(d: int, n: int) -> int:
    """r_d(n) = sum_{e | gcd(d,n)} e * mu(d/e), the exponential sum over
    reduced residues a mod d of e(a n / d)."""
    if d < 1:
        raise ContractError("modulus must be >= 1")
    g = math.gcd(d, abs(n))
    total = 0
    for e in range(1, g + 1):
        if g % e == 0:
            total += e * moebius(d // e)
    return total


def _unit_inverses(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Units mod c (ascending) and their inverses, as int64 arrays.

    Every unit satisfies u^phi(c) = 1, so u^(phi(c)-1) is its inverse; the
    power is taken by square-and-multiply over the whole unit array at
    once (exact in int64 while c^2 < 2^63).
    """
    dd = np.arange(1, c, dtype=np.int64)
    units = dd[np.gcd(dd, c) == 1]
    inv, base = np.ones_like(units), units
    e = units.size - 1
    while e > 0:
        if e & 1:
            inv = inv * base % c
        base = base * base % c
        e >>= 1
    return units, inv


@lru_cache(maxsize=8)
def mu_phi_sieve(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Moebius mu(d) and Euler phi(d) for 0 <= d <= n, as read-only int64
    arrays (the entries at d = 0 are placeholders), cached per n."""
    mu = np.ones(n + 1, dtype=np.int64)
    phi = np.arange(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:  # no smaller prime has reduced it, so p is prime
            mu[p::p] *= -1
            mu[p * p::p * p] = 0
            phi[p::p] -= phi[p::p] // p
    mu.flags.writeable = False  # the cache hands these same arrays to every caller
    phi.flags.writeable = False
    return mu, phi


def ramanujan_weighted(v, ms) -> np.ndarray:
    """sum_{1 <= d <= D} v[d] r_d(m) for every m in `ms`, with D = len(v) - 1.

    v[0] is ignored.  Since r_d(m) = sum_{e | (d,m)} e mu(d/e), the sum
    equals sum_{e | m} e B(e) with B(e) = sum_j v[e j] mu(j): the weights
    are Moebius-inverted once and e B(e) is scattered onto the multiples of
    e in the arithmetic progression lo + s j that holds every |m|, with lo
    the least |m| and s the gcd of the differences (every e divides 0, so
    m = 0 gives sum_d v[d] phi(d)).  Cost O((D + span / s) log D), with no
    (#d x #m) table.
    """
    v = np.asarray(v)
    ms = np.abs(np.asarray(ms, dtype=np.int64))
    D = v.size - 1
    mu = mu_phi_sieve(D)[0].tolist()
    B = np.zeros(D + 1, dtype=np.result_type(v.dtype, np.int64))
    for j in range(1, D + 1):
        if mu[j]:
            B[1:D // j + 1] += mu[j] * v[j::j]
    lo = int(ms.min())
    s = int(np.gcd.reduce(ms - lo)) or 1
    out = np.zeros((int(ms.max()) - lo) // s + 1, dtype=B.dtype)
    for e in range(1, D + 1):
        g = math.gcd(s, e)
        if lo % g == 0:  # e | lo + s j exactly for j = j0 mod e/g
            step = e // g
            j0 = -(lo // g) * pow(s // g, -1, step) % step
            out[j0::step] += e * B[e]
    return out[(ms - lo) // s]


def kloosterman(a: int, b: int, c: int) -> float:
    """S(a,b;c) = sum over units d mod c of e((a d + b dbar)/c).

    The sum is real (d -> dbar pairs terms with their conjugates); an
    imaginary residue above 1e-9 signals an inverse-table bug and raises
    NumericsError.
    """
    if c < 1:
        raise ContractError("modulus must be >= 1")
    if c == 1:
        return 1.0
    d, dbar = _unit_inverses(c)
    residues = ((a % c) * d + (b % c) * dbar) % c  # a * d alone may overflow int64
    angles = 2.0 * math.pi * residues.astype(np.float64) / c
    re = float(np.sum(np.cos(angles)))
    im = float(np.sum(np.sin(angles)))
    if abs(im) > IMAG_TOL:
        raise NumericsError(f"S({a},{b};{c}) imaginary residue {im:.3e} exceeds {IMAG_TOL}")
    return re


def weil_bound(a: int, b: int, c: int) -> float:
    """tau(c) * gcd(a,b,c)^(1/2) * c^(1/2)."""
    g = math.gcd(math.gcd(a, b), c)
    return divisor_count(c) * math.sqrt(g) * math.sqrt(c)
