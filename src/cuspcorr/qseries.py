"""Exact products of truncated q-expansions, computed modulo small primes.

Series are multiplied modulo a few primes below 2^16 by float FFTs on the
8-bit halves of the residues (every rounded output checked), and each
coefficient is reconstructed once by Garner's CRT with a balanced lift.  The
caller sizes the prime set from a proven coefficient bound (``crt_primes``).
``mul_coeffs`` is the exact schoolbook product that ``mul_mod`` is tested
against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, NumericsError


def mul_coeffs(a: list[int], b: list[int], n: int) -> list[int]:
    """First n coefficients of the product of two integer series, exact (O(n^2))."""
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0 or i >= n:
            continue
        top = min(len(b), n - i)
        for j in range(top):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


_PRIME_CEILING = 1 << 16  # residues must split into two 8-bit halves
ROUND_TOL = 0.25  # largest accepted |x - rint(x)| of an FFT convolution output


def crt_primes(bound: int) -> tuple[int, ...]:
    """The fewest primes below 2^16, largest first, whose product exceeds `bound`."""
    if bound < 1:
        raise ContractError("CRT bound must be >= 1")
    primes: list[int] = []
    prod = 1
    p = _PRIME_CEILING - 1
    while prod <= bound:
        if p < 3:
            raise ContractError(f"no product of primes below 2^16 exceeds {bound}")
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            primes.append(p)
            prod *= p
        p -= 2
    return tuple(primes)


def _fft_len(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n, a size the FFT handles at full speed."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def mul_mod(a: np.ndarray, b: np.ndarray, p: int, n: int) -> np.ndarray:
    """First n coefficients of a*b mod p, for int64 residues in [0, p), p < 2^16.

    Each factor is split into 8-bit halves, so the three sub-convolutions are
    integers below 2 * 255^2 * n and come out of a float64 FFT exactly as long
    as its rounding error stays under ROUND_TOL.  That is checked on every
    output; a larger error raises NumericsError instead of returning wrong
    residues.  Passing the same array as `a` and `b` squares it with two
    forward transforms instead of four.
    """
    square = a is b
    a = a[:n]
    b = a if square else b[:n]
    m = min(n, len(a) + len(b) - 1)
    size = _fft_len(len(a) + len(b) - 1)
    rfft, irfft = np.fft.rfft, np.fft.irfft
    ah, al = rfft(a >> 8, size), rfft(a & 0xFF, size)
    if square:
        parts = (ah * ah, 2.0 * ah * al, al * al)
    else:
        bh, bl = rfft(b >> 8, size), rfft(b & 0xFF, size)
        parts = (ah * bh, ah * bl + al * bh, al * bl)
    out = np.zeros(n, dtype=np.int64)
    for spectrum, scale in zip(parts, ((1 << 16) % p, 1 << 8, 1)):
        x = irfft(spectrum, size)[:m]
        r = np.rint(x)
        err = float(np.max(np.abs(x - r)))
        if not err < ROUND_TOL:
            raise NumericsError(f"FFT product mod {p} at length {n}: rounding error "
                                f"{err:.3g} is not below {ROUND_TOL}")
        out[:m] += r.astype(np.int64) % p * scale
    return out % p


def crt_lift(residues: list[np.ndarray], primes: tuple[int, ...]) -> list[int]:
    """The integers x with |x| < prod(primes)/2 and x = residues[i] mod primes[i].

    Garner's mixed-radix digits x = v0 + p0 (v1 + p1 (v2 + ...)) are found in
    int64, three of them are packed per int64 word (p^3 < 2^48), and the
    words are joined with one Python-integer Horner pass.
    """
    digits: list[np.ndarray] = []
    for i, (r, p) in enumerate(zip(residues, primes)):
        acc = np.zeros_like(r)  # digits so far, evaluated mod p
        for v, q in zip(reversed(digits), reversed(primes[:i])):
            acc = (acc * q + v) % p
        inv = pow(math.prod(primes[:i]) % p, -1, p)
        digits.append((r - acc) % p * inv % p)
    total = None
    for lo in reversed(range(0, len(primes), 3)):
        hi = min(lo + 3, len(primes))
        word = digits[hi - 1]
        for j in reversed(range(lo, hi - 1)):
            word = word * primes[j] + digits[j]
        word = word.astype(object)
        total = word if total is None else total * math.prod(primes[lo:hi]) + word
    modulus = math.prod(primes)
    half = modulus // 2
    return [x - modulus if x > half else x for x in total.tolist()]
