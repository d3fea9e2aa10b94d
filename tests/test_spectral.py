import math

import numpy as np
import pytest

from cuspcorr import spectral
from cuspcorr.arith import kloosterman
from cuspcorr.errors import ContractError
from cuspcorr.spectral import (_kloosterman_block, large_sieve_ratio, petersson_geometric,
                               petersson_ratio_check, petersson_table, petersson_tail_bound,
                               sieve_quadratic_form)
from cuspcorr.util import rademacher
from oracles import bessel_j_scalar, geometric_sums_rows, kloosterman_block_mod

CMAX = 1000
# the two ranges the Petersson tables and a sieve form read, and one far-apart pair
PAIR_SETS = {"m1-10": spectral._upper_pairs(1, 10), "m12-24": spectral._upper_pairs(12, 24),
             "1,1e5": np.array([(1, 10 ** 5)], dtype=np.int64)}


def test_kloosterman_block_matches_scalar_sum():
    # m = n, gcd(m, n, c) > 1 for many c, and m or n >= c (c <= 60)
    pairs = np.array([(1, 1), (7, 7), (2, 3), (6, 4), (12, 18), (30, 45), (60, 60),
                      (61, 1), (3, 70), (97, 120), (0, 5)], dtype=np.int64)
    for c in range(1, 61):
        block = _kloosterman_block(pairs, c)
        scalar = [kloosterman(int(m), int(n), c) for m, n in pairs]
        assert np.allclose(block, scalar, rtol=0, atol=1e-12), c


@pytest.mark.parametrize("name", PAIR_SETS)
def test_kloosterman_block_matches_mod_c_oracle(name):
    # the residue rows add up to the same integers, summed in the same order
    pairs = PAIR_SETS[name]
    for c in range(1, 301):
        assert np.array_equal(_kloosterman_block(pairs, c), kloosterman_block_mod(pairs, c)), c


@pytest.mark.parametrize("name", PAIR_SETS)
def test_batched_geometric_sums_match_row_oracle(name):
    # Bessel rows batched into shared grid calls give the one-call-per-row values
    pairs = PAIR_SETS[name]
    kl = spectral._kloosterman_rows(pairs, 300)
    for k in range(12, 27, 2):
        assert np.array_equal(spectral._geometric_sums(k, pairs, kl),
                              geometric_sums_rows(k, pairs, kl)), k


@pytest.mark.parametrize("k", (12, 14, 16, 18))
def test_petersson_table_matches_direct_sum(k):
    # the scalar Kloosterman sum and the scalar Bessel routine as the oracle
    table = petersson_table(k, 4, 60)
    sign = 1.0 if k % 4 == 0 else -1.0
    for m in range(1, 5):
        for n in range(1, 5):
            direct = math.fsum(kloosterman(m, n, c) / c
                               * bessel_j_scalar(k - 1, 4 * math.pi * math.sqrt(m * n) / c)
                               for c in range(1, 61))
            expected = (1.0 if m == n else 0.0) + 2 * math.pi * sign * direct
            assert table[m - 1, n - 1] == pytest.approx(expected, abs=1e-12), (m, n)


def test_kloosterman_table_shared_across_weights(monkeypatch):
    # S(m,n;c) does not depend on the weight: one block per c for all weights
    calls = []

    def counting(pairs, c):
        calls.append(c)
        return _kloosterman_block(pairs, c)

    spectral._petersson_block.cache_clear()
    spectral._kloosterman_table.cache_clear()
    monkeypatch.setattr(spectral, "_kloosterman_block", counting)
    sieve_quadratic_form(18, 4, 60)  # weights 12, 16 and 18
    assert sorted(calls) == list(range(1, 61))


def test_shared_kloosterman_table_is_read_only():
    kl = spectral._kloosterman_table(1, 3, 20)
    before = kl.copy()
    with pytest.raises(ValueError):
        kl[0, 0] = 0.0
    assert np.array_equal(spectral._kloosterman_table(1, 3, 20), before)


def test_geometric_matches_table_entry():
    for k in (12, 14, 16, 18):
        for m, n in ((1, 1), (2, 3), (3, 2), (5, 5), (2, 6)):
            table = petersson_table(k, max(m, n), 200)
            value = petersson_geometric(k, m, n, 200).value
            assert abs(value - table[m - 1, n - 1]) < 1e-14, (k, m, n)


def test_single_term_formula():
    pv = petersson_geometric(12, 1, 1, c_max=1)
    expected = 1 + 2 * math.pi * bessel_j_scalar(11, 4 * math.pi)
    assert pv.value == pytest.approx(expected, abs=1e-14)


def test_self_convergence_in_cmax():
    for (m, n) in ((1, 1), (4, 5), (20, 20)):  # up to mn = 400
        v1 = petersson_geometric(12, m, n, c_max=1000).value
        v2 = petersson_geometric(12, m, n, c_max=2000).value
        assert abs(v1 - v2) < 1e-12


def test_tail_bound_honest():
    # the analytic tail bound dominates the observed cmax -> 2 cmax change
    for (m, n) in ((1, 1), (7, 9), (20, 20)):
        v1 = petersson_geometric(12, m, n, c_max=400).value
        v2 = petersson_geometric(12, m, n, c_max=800).value
        assert abs(v1 - v2) <= petersson_tail_bound(12, m, n, 400)


def test_ratio_checks_dimension_one():
    for k in (12, 16):
        for (m, n) in ((1, 1), (2, 2), (2, 3), (5, 7), (10, 10)):
            r1, r2 = petersson_ratio_check(k, m, n, CMAX)
            assert r1 < 1e-10
            assert r2 < 1e-8
    r1, r2 = petersson_ratio_check(12, 1, 1, CMAX)
    assert r2 < 1e-12  # |1 - lambda(1)^2|


def test_eigenvalue_recovery_value():
    # P(2,2)/P(1,1) reproduces lambda(2)^2 = (24 * 2^-5.5)^2 = 0.28125
    table = petersson_table(12, 2, CMAX)
    assert table[1, 1] / table[0, 0] == pytest.approx(0.28125, abs=1e-10)


def test_cached_petersson_table_is_read_only():
    table = petersson_table(12, 3, 50)
    before = table.copy()
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    assert np.array_equal(petersson_table(12, 3, 50), before)


def test_weight14_empty_space_forces_zero():
    """Dimension-zero control: empty spectral side means P14(m,n) = 0;
    the Kloosterman series must cancel the diagonal exactly."""
    table = petersson_table(14, 10, CMAX)
    assert np.abs(table).max() < 1e-8


def test_ratio_check_contract():
    with pytest.raises(ContractError):
        petersson_ratio_check(14, 2, 2)
    with pytest.raises(ContractError):
        petersson_geometric(11, 1, 1)


@pytest.mark.parametrize("call", [lambda: petersson_table(12, 0, 100),
                                  lambda: petersson_table(12, 3, 0),
                                  lambda: sieve_quadratic_form(26, 10, 0)],
                         ids=["petersson-mmax-0", "petersson-cmax-0", "sieve-cmax-0"])
def test_empty_ranges_are_contract_errors(call):
    with pytest.raises(ContractError):
        call()


def test_positivity_of_sieve_form():
    q = sieve_quadratic_form(26, 50, CMAX)
    for seed in range(100):
        a = rademacher(51, seed)
        val = float(np.real(np.conj(a) @ q @ a))
        norm_sq = float(np.sum(a * a))
        assert val >= -1e-9 * norm_sq


def test_large_sieve_ratio_properties():
    # single unit entry: a positive spectral average
    a = np.zeros(51)
    a[3] = 1.0
    res = large_sieve_ratio(26, a, 50, CMAX)
    assert res["lhs"] >= 0
    # zero vector
    assert large_sieve_ratio(26, np.zeros(51), 50, CMAX)["ratio"] == 0.0
    # a recorded measurement on a random vector
    res = large_sieve_ratio(26, rademacher(51, 9), 50, CMAX)
    assert res["ratio"] <= 1.0
    with pytest.raises(ContractError):
        large_sieve_ratio(28, a, 50)


def test_multiplicativity_wide():
    for k in (12, 16):
        table = petersson_table(k, 10, CMAX)
        p11 = table[0, 0]
        for m in range(1, 11):
            for n in range(1, 11):
                r1 = abs(table[m - 1, n - 1] * p11 - table[m - 1, 0] * table[n - 1, 0])
                assert r1 < 1e-9
