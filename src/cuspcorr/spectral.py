"""Holomorphic spectral identities at level 1, verified from the
arithmetic side.

P_k(m,n) = delta_{mn} + 2 pi i^{-k} sum_{c <= c_max} S(m,n;c)/c *
J_{k-1}(4 pi sqrt(mn)/c) equals the weighted spectral average
4 pi Gamma(k-1) sqrt(mn) sum_f rho_f(m) conj(rho_f(n)) over an orthonormal
basis of the weight-k cusp space.  For the dimension-one weights the ratio
P(m,n)/P(1,1) therefore recovers lambda(m) lambda(n) with no Petersson
norm ever computed, and for the dimension-zero weights P vanishes
identically - the empty spectral side forces the Kloosterman series to
cancel the diagonal exactly, which is the sharpest end-to-end zero test
this pipeline has.

The spectral large sieve is measured through the same substitution:
Gamma(k) sqrt(mm') sum_f rho(m) conj(rho(m')) = ((k-1)/(4 pi)) P_k(m,m').
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import _unit_inverses
from .bessel import BesselKernel
from .coeffs import make_eigenform
from .errors import ContractError, NumericsError
from .quadrature import _GRID_VALUES

DIMENSION_ONE_WEIGHTS = (12, 16, 18, 20, 22, 26)
DEFAULT_CMAX = 1000


def _i_pow_minus(k: int) -> float:
    if k % 2:
        raise ContractError("even weight required")
    return 1.0 if k % 4 == 0 else -1.0


@dataclass(frozen=True)
class PeterssonValue:
    k: int
    m: int
    n: int
    c_max: int
    value: float
    tail_bound: float


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct entries of `values` and the index of each entry among them."""
    ordered = np.sort(values)
    distinct = ordered[np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))]
    return distinct, np.searchsorted(distinct, values)


def _kloosterman_block(pairs: np.ndarray, c: int) -> np.ndarray:
    """S(m,n;c) for all (m,n) rows of `pairs`, sharing one unit table.

    The residue rows (m u) mod c and (n ubar) mod c are built once for each
    distinct m and n of `pairs`.  A pair's residues are the sum of its two
    rows, which lies in [0, 2c - 2] and indexes a cosine table laid out
    twice, so nothing is reduced mod c on the (pairs x units) array.
    """
    if c == 1:
        return np.ones(len(pairs))
    units, inv = _unit_inverses(c)
    table = np.cos(2.0 * math.pi * np.arange(c) / c)
    ms, m_of = _distinct(pairs[:, 0])
    ns, n_of = _distinct(pairs[:, 1])
    res = (ms[:, None] * units % c)[m_of]
    res += (ns[:, None] * inv % c)[n_of]
    return np.take(np.concatenate((table, table)), res).sum(axis=1)


def petersson_tail_bound(k: int, m: int, n: int, c_max: int) -> float:
    """Rigorous truncation bound from |S(m,n;c)| <= c and
    |J_{k-1}(x)| <= (x/2)^(k-1)/Gamma(k)."""
    base = 2.0 * math.pi * math.sqrt(m * n)
    logs = (k - 1) * math.log(base) - math.lgamma(k)
    # sum_{c > C} c^-(k-1) <= C^-(k-2)/(k-2) + C^-(k-1)
    log_tail = math.log(c_max ** -(k - 2) / (k - 2) + c_max ** -(k - 1))
    return 2.0 * math.pi * math.exp(logs + log_tail)


def _upper_pairs(m_lo: int, m_hi: int) -> np.ndarray:
    """Rows (m, n) with m_lo <= m <= n <= m_hi, in row-major upper-triangle order."""
    ms = np.arange(m_lo, m_hi + 1)
    i, j = np.triu_indices(len(ms))
    return np.column_stack((ms[i], ms[j]))


def _kloosterman_rows(pairs: np.ndarray, c_max: int) -> np.ndarray:
    """S(m,n;c) with one row per row of `pairs` and one column per c <= c_max."""
    kl = np.column_stack([_kloosterman_block(pairs, c) for c in range(1, c_max + 1)])
    kl.flags.writeable = False
    return kl


@lru_cache(maxsize=4)
def _kloosterman_table(m_lo: int, m_hi: int, c_max: int) -> np.ndarray:
    """S(m,n;c) on the upper triangle of [m_lo, m_hi]^2.  S does not depend
    on the weight, so every weight's block reads this one read-only table."""
    return _kloosterman_rows(_upper_pairs(m_lo, m_hi), c_max)


def _geometric_sums(k: int, pairs: np.ndarray, kl: np.ndarray) -> np.ndarray:
    """sum_{c <= c_max} S(m,n;c)/c J_{k-1}(4 pi sqrt(mn)/c) for each row (m, n)
    of `pairs`, with S read from `kl` (columns c = 1..c_max).

    Each kernel.grid call takes as many rows as fit in about _GRID_VALUES
    arguments (at least one row); grid rows do not interact, so the values
    equal those of one call per row.
    """
    kernel = BesselKernel.of(k - 1)
    sqrt_mn = np.sqrt(pairs[:, 0] * pairs[:, 1]).astype(np.float64)
    cs = np.arange(1, kl.shape[1] + 1)
    step = max(1, _GRID_VALUES // cs.size)
    jcache = np.vstack([kernel.grid(4.0 * math.pi * sqrt_mn[i:i + step, None] / cs)
                        for i in range(0, len(pairs), step)])
    sums = np.zeros(len(pairs))
    for ci, c in enumerate(cs):
        sums += kl[:, ci] * jcache[:, ci] / c
    return sums


@lru_cache(maxsize=64)
def _petersson_block(k: int, m_lo: int, m_hi: int, c_max: int) -> np.ndarray:
    """P_k(m,n) for all m,n in [m_lo, m_hi], exploiting symmetry in (m,n)."""
    pairs = _upper_pairs(m_lo, m_hi)
    i, j = (pairs - m_lo).T
    values = 2.0 * math.pi * _i_pow_minus(k) * _geometric_sums(
        k, pairs, _kloosterman_table(m_lo, m_hi, c_max))
    values[i == j] += 1.0
    size = m_hi - m_lo + 1
    out = np.zeros((size, size))
    out[i, j] = values
    out[j, i] = values
    out.flags.writeable = False  # the cache hands this same array to every caller
    return out


def petersson_geometric(k: int, m: int, n: int, c_max: int = DEFAULT_CMAX) -> PeterssonValue:
    """Geometric side of the weight-k spectral identity, truncated at c_max."""
    if k < 12 or k % 2:
        raise ContractError("need even weight k >= 12")
    if m < 1 or n < 1 or c_max < 1:
        raise ContractError("need m, n, c_max >= 1")
    pairs = np.array([(m, n)], dtype=np.int64)
    total = float(_geometric_sums(k, pairs, _kloosterman_rows(pairs, c_max))[0])
    value = (1.0 if m == n else 0.0) + 2.0 * math.pi * _i_pow_minus(k) * total
    return PeterssonValue(k=k, m=m, n=n, c_max=c_max, value=value,
                          tail_bound=petersson_tail_bound(k, m, n, c_max))


def petersson_table(k: int, m_max: int, c_max: int = DEFAULT_CMAX) -> np.ndarray:
    """P_k(m,n) for 1 <= m,n <= m_max as an array indexed [m-1, n-1]."""
    if k < 12 or k % 2:
        raise ContractError("need even weight k >= 12")
    if m_max < 1 or c_max < 1:
        raise ContractError("need m_max, c_max >= 1")
    return _petersson_block(k, 1, m_max, c_max)


def petersson_ratio_check(k: int, m: int, n: int, c_max: int = DEFAULT_CMAX) -> tuple[float, float]:
    """Norm-free residuals on a dimension-one space.

    r1 = |P(m,n) P(1,1) - P(m,1) P(n,1)| tests rank-one structure from the
    geometric side alone; r2 = |P(m,n)/P(1,1) - lambda(m) lambda(n)| tests
    eigenvalue recovery against the q-expansion.
    """
    if k not in (12, 16):
        raise ContractError("ratio checks need a dimension-one weight (12 or 16)")
    table = _petersson_block(k, 1, max(m, n), c_max)
    p11 = table[0, 0]
    if abs(p11) < 1e-3:
        raise NumericsError(f"P(1,1) = {p11:.3e} unexpectedly small; pipeline broken")
    pmn = table[m - 1, n - 1]
    pm1 = table[m - 1, 0]
    pn1 = table[n - 1, 0]
    r1 = abs(pmn * p11 - pm1 * pn1)
    form = make_eigenform(k, max(m, n))
    r2 = abs(pmn / p11 - form.lam[m] * form.lam[n])
    return r1, r2


def sieve_quadratic_form(k_max: int, M: int, c_max: int = DEFAULT_CMAX) -> np.ndarray:
    """Matrix of the large-sieve left side on coefficient vectors over [M, 2M]:
    Q[m,m'] = sum_k ((k-1)/(4 pi)) P_k(m,m'), k over dimension-one weights
    up to k_max.  Positive semidefinite up to truncation error."""
    if k_max > 26:
        raise ContractError("k_max <= 26 (dimension <= 1 weights only)")
    if M < 1 or c_max < 1:
        raise ContractError("need M, c_max >= 1")
    size = M + 1
    total = np.zeros((size, size))
    for k in DIMENSION_ONE_WEIGHTS:
        if k <= k_max:
            total += ((k - 1) / (4.0 * math.pi)) * _petersson_block(k, M, 2 * M, c_max)
    return total


def large_sieve_ratio(k_max: int, a: np.ndarray, M: int, c_max: int = DEFAULT_CMAX) -> dict:
    """Measured spectral-average quadratic form against (k_max^2 + M) ||a||^2.

    `a` has M+1 entries for m = M..2M.  Returns the left side, the bound,
    and their ratio (0 for the zero vector).
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (M + 1,):
        raise ContractError("coefficient vector must cover m = M..2M")
    norm_sq = float(np.sum(np.abs(a) ** 2))
    if norm_sq == 0.0:
        return {"lhs": 0.0, "bound": 0.0, "ratio": 0.0}
    q = sieve_quadratic_form(k_max, M, c_max)
    lhs = float(np.real(np.conj(a) @ q @ a))
    bound = (k_max ** 2 + M) * norm_sq
    return {"lhs": lhs, "bound": bound, "ratio": lhs / bound}
