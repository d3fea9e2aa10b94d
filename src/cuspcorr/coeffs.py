"""Exact Fourier coefficients of the level-1 eigenforms used everywhere else.

Weight 12 is the discriminant form q * prod(1-q^n)^24; weight 16 is its
product with the weight-4 Eisenstein series.  Both spaces have dimension
one, so these q-expansions are automatically normalized Hecke eigenforms
and the Hecke relation can be checked exactly against them.

``make_eigenform`` builds the tables modulo a few primes (``qseries.mul_mod``)
and lifts each coefficient once by CRT, with the prime count taken from
Deligne's bound.  ``eta_power_qexp_naive`` multiplies the factors of the
product out one by one, an independent check of the first few coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, InsufficientCoefficients
from .qseries import crt_lift, crt_primes, mul_mod

SUPPORTED_WEIGHTS = (12, 16)


def eta_power_qexp_naive(exponent: int, N: int) -> tuple[int, ...]:
    """q * prod(1-q^n)^exponent with the factors multiplied out one by one.

    Entry n-1 is the coefficient of q^n (the leading q is factored in), so
    exponent=24 gives a(1..N) of the weight-12 form.  O(exponent * N^2);
    only sensible for small N.
    """
    if N < 1:
        raise ContractError("empty series requested (N=0)")
    c = [0] * N
    c[0] = 1
    for n in range(1, N):
        for _ in range(exponent):
            for i in range(N - 1, n - 1, -1):
                c[i] -= c[i - n]
    return tuple(c)


@dataclass
class Eigenform:
    """Normalized Hecke eigenform: exact a(n) plus float lambda(n).

    a[n] is the exact integer coefficient for 1 <= n <= length (a[0] = 0);
    lam[n] = a(n) * n^(-(weight-1)/2) in double precision.
    """

    weight: int
    a: tuple[int, ...]
    lam: np.ndarray = field(repr=False)
    canonical: bool = False  # built by make_eigenform (tables may be regrown)

    @property
    def length(self) -> int:
        return len(self.a) - 1

    def require(self, n: int) -> None:
        if n > self.length:
            raise InsufficientCoefficients(
                f"weight-{self.weight} table has {self.length} coefficients, need {n}"
            )


_form_cache: dict[int, Eigenform] = {}


def table_primes(weight: int, N: int) -> tuple[int, ...]:
    """CRT primes that determine a(1..N) of the weight-k eigenform.

    Deligne's bound |a(n)| <= d(n) n^((k-1)/2) with d(n) <= 2 sqrt(n) gives
    |a(n)| <= 2 N^(k/2), so a balanced lift is exact once the prime product
    exceeds 4 N^(k/2).
    """
    return crt_primes(4 * N ** (weight // 2))


def _eta_cubed(N: int) -> np.ndarray:
    """prod(1-q^n)^3 to N terms by Jacobi's identity,
    sum_k (-1)^k (2k+1) q^(k(k+1)/2)."""
    k = np.arange(math.isqrt(2 * N) + 1, dtype=np.int64)
    t = k * (k + 1) // 2
    k, t = k[t < N], t[t < N]
    c = np.zeros(N, dtype=np.int64)
    c[t] = np.where(k % 2, -(2 * k + 1), 2 * k + 1)
    return c


def _sigma_sieve(power: int, N: int) -> np.ndarray:
    """sigma_power(n) for n = 0..N-1 (entry 0 is 0) in int64, by a divisor
    sieve: small divisors d <= sqrt(N) by strided adds, large ones by their
    cofactor."""
    s = np.zeros(N, dtype=np.int64)
    r = math.isqrt(N - 1)
    for d in range(1, r + 1):
        s[d::d] += d ** power
    for j in range(1, (N - 1) // (r + 1) + 1):
        d = np.arange(r + 1, (N - 1) // j + 1, dtype=np.int64)
        s[d * j] += d ** power
    return s


def sigma3_sieve(N: int) -> np.ndarray:
    """sigma_3(n) for n = 0..N-1 (entry 0 is 0) in int64.

    sigma_3(n) < zeta(3) n^3 < 1.21 n^3 must stay below 2^63, which holds up
    to N of about 1.97e6; larger N raise rather than wrap.
    """
    if N < 1:
        raise ContractError("need N >= 1")
    if 121 * (N - 1) ** 3 >= 100 * 2 ** 63:
        raise ContractError(f"sigma_3 up to N={N} can overflow int64 (limit about N=1.97e6)")
    return _sigma_sieve(3, N)


def make_eigenform(weight: int, N: int) -> Eigenform:
    """The unique normalized eigenform of weight 12 or 16, coefficients to N.

    Tables are cached and grown monotonically; repeated calls with smaller
    N reuse the largest expansion computed so far.
    """
    if weight not in SUPPORTED_WEIGHTS:
        raise ContractError(f"weight must be one of {SUPPORTED_WEIGHTS}")
    if N < 1:
        raise ContractError("need N >= 1")
    cached = _form_cache.get(weight)
    if cached is not None and cached.length >= N:
        return cached

    primes = table_primes(weight, N)
    eta3 = _eta_cubed(N)
    sigma3 = sigma3_sieve(N) if weight == 16 else None
    residues = []
    for p in primes:
        r = eta3 % p
        for _ in range(3):  # eta^3 -> eta^6 -> eta^12 -> eta^24
            r = mul_mod(r, r, p, N)
        if sigma3 is not None:  # times E4 = 1 + 240 sum sigma_3(n) q^n
            e4 = sigma3 % p * 240 % p
            e4[0] = 1
            r = mul_mod(r, e4, p, N)
        residues.append(r)
    a = (0, *crt_lift(residues, primes))  # entry n = coefficient of q^n; a tuple, shared through the cache
    n = np.arange(N + 1, dtype=np.float64)
    n[0] = 1.0
    lam = np.array([float(x) for x in a], dtype=np.float64) / n ** ((weight - 1) / 2.0)
    lam.flags.writeable = False  # shared by every caller through the cache
    form = Eigenform(weight=weight, a=a, lam=lam, canonical=True)
    _form_cache[weight] = form
    return form


def divisor_sieve(N: int) -> np.ndarray:
    """The divisor function tau(n) = sigma_0(n) for n = 0..N (entry 0 is 0)."""
    if N < 1:
        raise ContractError("need N >= 1")
    return _sigma_sieve(0, N + 1)


def hecke_relation_report(form: Eigenform, M: int) -> dict:
    """Exact check of a(m)a(n) = sum_{d | (m,n)} d^(k-1) a(mn/d^2) for m,n <= M.

    Returns {"checked": pairs, "violations": count, "first_violation": (m, n) or None}.
    """
    form.require(M * M)
    kpow = form.weight - 1
    a = form.a
    violations = 0
    first = None
    checked = 0
    for m in range(1, M + 1):
        am = a[m]
        for n in range(m, M + 1):
            g = math.gcd(m, n)
            rhs = 0
            if g == 1:
                rhs = a[m * n]
            else:
                mn = m * n
                for d in range(1, g + 1):
                    if g % d == 0:
                        rhs += d ** kpow * a[mn // (d * d)]
            checked += 1
            if am * a[n] != rhs:
                violations += 1
                if first is None:
                    first = (m, n)
    return {"checked": checked, "violations": violations, "first_violation": first}
