"""Exact arithmetic exponential sums and multiplicative helpers.

Kloosterman sums are evaluated by direct enumeration over units mod c with
a batch-inverted unit table; the phase (a*d + b*dbar)/c is reduced mod c in
integer form before any trigonometry, so no precision is lost for large c.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


def ramanujan_sum_bruteforce(d: int, n: int) -> complex:
    """Direct exponential sum; oracle for the closed form."""
    if d < 1:
        raise ContractError("modulus must be >= 1")
    total = 0.0 + 0.0j
    for a in range(1, d + 1):
        if math.gcd(a, d) == 1:
            total += np.exp(2j * math.pi * ((a * n) % d) / d)
    return total


def _unit_inverses(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Units mod c (ascending) and their inverses, as int64 arrays, via one
    batched inversion.

    Prefix products of units stay units, so a single extended-Euclid
    inversion of the total product unrolls into all the inverses.
    """
    units = [d for d in range(1, c) if math.gcd(d, c) == 1]
    prefix = [1] * (len(units) + 1)
    for i, u in enumerate(units):
        prefix[i + 1] = (prefix[i] * u) % c
    inv_all = pow(prefix[-1], -1, c)
    inverses = [0] * len(units)
    for i in range(len(units) - 1, -1, -1):
        inverses[i] = (prefix[i] * inv_all) % c
        inv_all = (inv_all * units[i]) % c
    return np.asarray(units, dtype=np.int64), np.asarray(inverses, dtype=np.int64)


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
    residues = (a * d + b * dbar) % c
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


def reduced_fractions(c: int) -> list[Fraction]:
    """All d/c with 1 <= d <= c, gcd(d,c)=1; for c=1 this is just 1."""
    if c < 1:
        raise ContractError("modulus must be >= 1")
    if c == 1:
        return [Fraction(1, 1)]
    return [Fraction(d, c) for d in range(1, c + 1) if math.gcd(d, c) == 1]
