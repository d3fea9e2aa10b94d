import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcorr import coeffs
from cuspcorr.cli import main
from cuspcorr.coeffs import (divisor_sieve, eta_power_qexp_naive, hecke_relation_report,
                             make_eigenform, sigma3_sieve, table_primes)
from cuspcorr.errors import ContractError, InsufficientCoefficients, NumericsError
from cuspcorr.qseries import crt_lift, crt_primes, mul_coeffs, mul_mod
from oracles import eigenform_recurrence, sigma_table


def test_eta24_small_values_against_naive_product():
    # independent route: multiply the (1-q^n) factors out directly
    fast = make_eigenform(12, 8).a[1:9]
    naive = eta_power_qexp_naive(24, 8)
    assert fast == naive
    assert fast[1] == -24    # a(2)
    assert fast[4] == 4830   # a(5)


def test_make_eigenform_normalization():
    f = make_eigenform(12, 2)
    assert f.lam[1] == 1.0
    assert f.lam[2] == pytest.approx(-24 * 2 ** -5.5, abs=1e-15)
    g = make_eigenform(16, 1)
    assert g.lam[1] == 1.0
    with pytest.raises(ContractError):
        make_eigenform(14, 10)
    with pytest.raises(ContractError):
        make_eigenform(12, 0)
    with pytest.raises(ContractError):
        eta_power_qexp_naive(24, 0)


def test_hecke_relation_coprime_and_prime_power():
    f = make_eigenform(12, 40)
    assert f.a[6] == f.a[2] * f.a[3] == -6048
    assert f.a[2] ** 2 == f.a[4] + 2 ** 11 * f.a[1]  # 576 = -1472 + 2048


def test_hecke_report_small():
    f = make_eigenform(12, 30 * 30)
    rep = hecke_relation_report(f, 30)
    assert rep["violations"] == 0
    from cuspcorr.coeffs import Eigenform
    tiny = Eigenform(weight=12, a=f.a[:11], lam=f.lam[:11].copy())
    with pytest.raises(InsufficientCoefficients):
        hecke_relation_report(tiny, 30)


def test_divisor_sieve_values():
    t2 = divisor_sieve(10)
    assert t2[6] == 4
    assert t2[1] == 1
    for N in (1, 2, 97, 5000):
        assert divisor_sieve(N).tolist() == sigma_table(0, N + 1)
    with pytest.raises(ContractError):
        divisor_sieve(0)


def test_partial_sum_bound(form12, form16):
    for f in (form12, form16):
        sq = f.lam[1:10 ** 5 + 1] ** 2
        acc = np.cumsum(sq)
        for x in (10 ** 3, 10 ** 4, 10 ** 5):
            assert acc[x - 1] <= 10 * x


small_series = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12)
P = 65521  # the largest prime below 2^16, the first CRT prime


def _residues(a):
    return np.array(a, dtype=np.int64) % P


@settings(max_examples=60, deadline=None)
@given(small_series, small_series, small_series)
def test_mul_mod_associative_commutative(a, b, c):
    A, B, C = _residues(a), _residues(b), _residues(c)
    n = len(a) + len(b) + len(c) - 2  # the whole triple product
    assert np.array_equal(mul_mod(A, B, P, n), mul_mod(B, A, P, n))
    lhs = mul_mod(mul_mod(A, B, P, n), C, P, n)
    rhs = mul_mod(A, mul_mod(B, C, P, n), P, n)
    assert np.array_equal(lhs, rhs)
    assert lhs.tolist() == [x % P for x in mul_coeffs(mul_coeffs(a, b, n), c, n)]


@settings(max_examples=40, deadline=None)
@given(small_series, small_series, st.integers(min_value=1, max_value=8))
def test_mul_mod_truncation_consistency(a, b, n):
    A, B = _residues(a), _residues(b)
    full = mul_mod(A, B, P, len(a) + len(b) - 1)
    assert full.tolist() == [x % P for x in mul_coeffs(a, b, len(a) + len(b) - 1)]
    k = min(n, len(full))
    assert np.array_equal(mul_mod(A[:k], B[:k], P, k), full[:k])


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((12, 16)), st.integers(min_value=1, max_value=3000))
def test_modular_build_matches_recurrence_oracle(weight, N):
    reference = eigenform_recurrence(weight, 3000)[:N + 1]  # built once, sliced per draw
    saved = dict(coeffs._form_cache)
    coeffs._form_cache.clear()  # build at exactly this N, not from a larger cached table
    try:
        assert make_eigenform(weight, N).a == reference
    finally:
        coeffs._form_cache.clear()
        coeffs._form_cache.update(saved)


def test_table_primes_cover_deligne_bound(form12, form16):
    assert len(table_primes(12, 25_000)) == 6
    assert len(table_primes(16, 25_000)) == 8
    for f in (form12, form16):
        N, k = f.length, f.weight
        modulus = math.prod(table_primes(k, N))
        assert modulus > 4 * N ** (k // 2)
        assert modulus > 2 * max(abs(x) for x in f.a)


def test_crt_primes_are_the_fewest():
    primes = crt_primes(10 ** 30)
    assert all(p < 2 ** 16 for p in primes) and len(set(primes)) == len(primes)
    assert math.prod(primes) > 10 ** 30 >= math.prod(primes[:-1])
    assert primes[0] == 65521  # the largest prime below 2^16


def test_mul_mod_matches_schoolbook():
    rng = np.random.default_rng(7)
    p = 65521
    a = rng.integers(p - 300, p, 600)  # residues near p: the largest FFT inputs
    b = rng.integers(0, p, 450)
    ref = [x % p for x in mul_coeffs([int(x) for x in a], [int(x) for x in b], 800)]
    assert mul_mod(a, b, p, 800).tolist() == ref
    sq = [x % p for x in mul_coeffs([int(x) for x in a], [int(x) for x in a], 700)]
    assert mul_mod(a, a, p, 700).tolist() == sq


def test_crt_lift_is_balanced_and_exact():
    primes = crt_primes(2 ** 100)
    modulus = math.prod(primes)
    half = (modulus - 1) // 2
    xs = [0, 1, -1, half, -half, 12345678901234567890, -(3 ** 60)]
    residues = [np.array([x % p for x in xs], dtype=np.int64) for p in primes]
    assert crt_lift(residues, primes) == xs


def test_fft_rounding_error_raises(monkeypatch, tmp_path):
    irfft = np.fft.irfft
    r = np.arange(1, 200, dtype=np.int64)
    exact = mul_mod(r, r, 65521, 199)
    # an error under the 0.25 margin still rounds to the right residues
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.2)
    assert np.array_equal(mul_mod(r, r, 65521, 199), exact)
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.3)
    with pytest.raises(NumericsError):
        mul_mod(r, r, 65521, 199)
    monkeypatch.setattr(coeffs, "_form_cache", {})
    with pytest.raises(NumericsError):
        make_eigenform(12, 500)
    out = tmp_path / "c.csv"
    assert main(["coeffs", "--weight", "16", "--upto", "500", "--out", str(out)]) == 2


def test_sigma3_sieve_matches_loop():
    for N in (1, 2, 3, 17, 1000):
        assert sigma3_sieve(N).tolist() == sigma_table(3, N)
    with pytest.raises(ContractError, match="int64"):
        sigma3_sieve(2_000_000)


def test_cached_lambda_table_is_read_only():
    f = make_eigenform(12, 50)
    before = f.lam[:51].copy()
    with pytest.raises(ValueError):
        f.lam[2] = 0.0
    assert np.array_equal(make_eigenform(12, 50).lam[:51], before)
    with pytest.raises(TypeError):
        make_eigenform(12, 50).a[2] = 0  # the exact table is a tuple
