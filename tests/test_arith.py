import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcorr.arith import (_unit_inverses, divisor_count, euler_phi, kloosterman,
                            moebius, mu_phi_sieve, ramanujan_sum, ramanujan_weighted, weil_bound)
from cuspcorr.errors import ContractError
from oracles import ramanujan_sum_bruteforce, unit_inverses_prefix


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(7) == 6
    assert euler_phi(12) == sum(1 for k in range(1, 13) if math.gcd(k, 12) == 1) == 4


def test_moebius():
    assert moebius(1) == 1
    assert moebius(4) == 0
    assert moebius(6) == 1
    assert moebius(30) == -1


def test_ramanujan_closed_form_vs_bruteforce():
    for d in range(1, 101):
        for n in range(0, 101):
            closed = ramanujan_sum(d, n)
            brute = ramanujan_sum_bruteforce(d, n)
            assert abs(brute.imag) < 1e-9
            assert round(brute.real) == closed
            assert abs(brute.real - closed) < 1e-9


def test_ramanujan_examples():
    assert ramanujan_sum(1, 17) == 1
    assert ramanujan_sum(2, 2) == 1
    assert ramanujan_sum(4, 2) == -2


def test_kloosterman_trivial_and_small():
    assert kloosterman(1, 1, 1) == 1.0
    assert kloosterman(1, 1, 2) == pytest.approx(1.0, abs=1e-12)
    assert kloosterman(1, 1, 3) == pytest.approx(2 * math.cos(2 * math.pi / 3), abs=1e-12)
    with pytest.raises(ContractError):
        kloosterman(1, 1, 0)


def test_kloosterman_symmetry():
    for c in (5, 12, 35, 101, 500):
        for a in (1, 3, 7, 20):
            for b in (2, 11, 20):
                assert kloosterman(a, b, c) == pytest.approx(kloosterman(b, a, c), abs=1e-9)


def test_kloosterman_depends_on_residues_only():
    # S(a,b;c) reads a and b mod c only; a * d for a above 2^63 / c must not
    # wrap around in int64
    for c in (2, 7, 94, 1009):
        for a, b in ((1, 1), (3, 0), (c - 1, 5)):
            assert kloosterman(a + 10 ** 17 * c, b, c) == kloosterman(a, b, c)
            assert kloosterman(a, b - 10 ** 19 * c, c) == kloosterman(a, b, c)


def test_kloosterman_degenerates_to_ramanujan():
    for c in range(1, 201):
        for a in (1, 7, 23, 50):
            assert kloosterman(a, 0, c) == pytest.approx(ramanujan_sum(c, a), abs=1e-9)


def test_weil_bound_sample():
    for c in range(1, 301):
        for (a, b) in ((1, 1), (2, 7), (10, 10)):
            assert abs(kloosterman(a, b, c)) <= weil_bound(a, b, c) * (1 + 1e-12)


def test_twisted_multiplicativity():
    # S(a,b;c1 c2) = S(a c2bar, b c2bar; c1) S(a c1bar, b c1bar; c2)
    for c1 in (3, 4, 7, 25, 49):
        for c2 in (5, 8, 9, 11, 50):
            if math.gcd(c1, c2) != 1:
                continue
            c2bar = pow(c2, -1, c1)
            c1bar = pow(c1, -1, c2)
            for (a, b) in ((1, 1), (2, 3)):
                lhs = kloosterman(a, b, c1 * c2)
                rhs = (kloosterman(a * c2bar, b * c2bar, c1)
                       * kloosterman(a * c1bar, b * c1bar, c2))
                assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=400))
def test_ramanujan_divisor_identity(d, n):
    # sum over e | d of r_e(n) equals d [d | n], a classical identity
    total = sum(ramanujan_sum(e, n) for e in range(1, d + 1) if d % e == 0)
    assert total == (d if n % d == 0 else 0)


def test_divisor_count():
    assert divisor_count(1) == 1
    assert divisor_count(12) == 6


def test_mu_phi_sieve_against_scalar():
    mu, phi = mu_phi_sieve(500)
    assert [int(x) for x in mu[1:]] == [moebius(d) for d in range(1, 501)]
    assert [int(x) for x in phi[1:]] == [euler_phi(d) for d in range(1, 501)]


def test_mu_phi_sieve_cached_read_only():
    mu, phi = mu_phi_sieve(300)
    assert mu_phi_sieve(300)[0] is mu  # one build per n
    fresh_mu, fresh_phi = mu_phi_sieve.__wrapped__(300)
    assert np.array_equal(mu, fresh_mu) and np.array_equal(phi, fresh_phi)
    for table in (mu, phi):
        with pytest.raises(ValueError):
            table[1] = 0


def test_unit_inverses_match_prefix_product_oracle():
    for c in range(1, 301):
        units, inv = _unit_inverses(c)
        ref_units, ref_inv = unit_inverses_prefix(c)
        assert units.dtype == inv.dtype == np.int64
        assert np.array_equal(units, ref_units) and np.array_equal(inv, ref_inv)
        assert np.all(units * inv % c == 1)


def test_ramanujan_weighted_against_scalar_sums():
    rng = np.random.default_rng(5)
    around_zero = np.arange(-120, 121)
    for D, ms in ((1, around_zero), (2, around_zero), (17, around_zero), (60, around_zero),
                  (60, np.arange(37, 91))):  # the last m-range does not start at 0
        v = rng.integers(-9, 10, D + 1)
        ref = [sum(int(v[d]) * ramanujan_sum(d, int(m)) for d in range(1, D + 1)) for m in ms]
        assert ramanujan_weighted(v, ms).tolist() == ref
        # r_d(0) = phi(d)
        assert ramanujan_weighted(v, [0])[0] == sum(int(v[d]) * euler_phi(d) for d in range(1, D + 1))


def test_ramanujan_weighted_on_progressions():
    # |m| on a progression with stride 2 or 3 and a nonzero offset: only
    # its slots are filled, with the same sums as the scalar definition
    rng = np.random.default_rng(8)
    for D, ms in ((60, 2 * np.arange(5, 90)), (60, 3 * np.arange(4, 70) + 7),
                  (45, 3 * np.arange(-30, 0) - 2), (45, np.array([11, 11, 35, 17]))):
        v = rng.integers(-9, 10, D + 1)
        ref = [sum(int(v[d]) * ramanujan_sum(d, int(m)) for d in range(1, D + 1)) for m in ms]
        assert ramanujan_weighted(v, ms).tolist() == ref
