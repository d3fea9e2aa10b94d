import math

import numpy as np
import pytest

from cuspcorr.circle import (_sweep, build_cover, detect_additive, l2_bound_ratio, snap_dyadic,
                             sweep_measures)
from cuspcorr.errors import ContractError, EmptyCoverError
from cuspcorr.windows import bump_window
from oracles import (detect_additive_fft, itilde_eval, itilde_eval_many, step_function_fraction,
                     sweep_measures_fraction)

W0 = bump_window()


def single_c_hook(t):
    return np.where(t == 1.0, 1.0, 0.0)


def test_single_interval_closed_form():
    cov = build_cover(single_c_hook, 2, 0.25)
    assert cov.Lambda == 1.0
    assert cov.n_intervals == 1
    l2, mass = sweep_measures(cov)
    d = 0.25
    assert mass == pytest.approx(1.0, abs=1e-15)
    assert l2 == pytest.approx((1 - 2 * d) + 2 * d * (1 - 1 / (2 * d)) ** 2, abs=1e-15)


def test_itilde_point_values():
    cov = build_cover(single_c_hook, 2, 0.25)
    assert itilde_eval(cov, 0.5) == pytest.approx(2.0)
    assert itilde_eval(cov, 0.1) == 0.0
    # right-continuity at the endpoints: left endpoint in, right endpoint out
    assert itilde_eval(cov, 0.25) == pytest.approx(2.0)
    assert itilde_eval(cov, 0.75) == 0.0


def test_empty_cover():
    with pytest.raises(EmptyCoverError):
        build_cover(lambda t: np.zeros_like(t), 10, 0.02)
    with pytest.raises(ContractError):
        build_cover(W0, 10, 0.5)  # delta > 1/Q


def test_window_values_outside_unit_interval():
    with pytest.raises(ContractError, match=r"\[0,1\]"):
        build_cover(lambda t: np.where(t == 1.5, 1.01, 0.5), 10, 0.02)
    with pytest.raises(ContractError, match=r"\[0,1\]"):
        build_cover(lambda t: -W0(t), 10, 0.02)
    with pytest.raises(ContractError, match="one weight"):
        build_cover(lambda t: 0.5, 10, 0.02)  # a scalar hook: no weight per c


def test_interval_count_matches_totients():
    cov = build_cover(W0, 30, 30 ** -1.5)
    from cuspcorr.arith import euler_phi
    expected = sum(euler_phi(c) for c, w in cov.weights.items())
    assert cov.n_intervals == expected


def test_lambda_against_independent_totient_sum():
    Q = 50
    cov = build_cover(W0, Q, Q ** -1.5)
    import sympy  # independent totient implementation
    ref = sum(float(W0.value(c / Q)) * int(sympy.totient(c)) for c in range(Q, 2 * Q + 1))
    assert cov.Lambda == pytest.approx(ref, rel=1e-12)


def _assert_matches_fraction_sweep(cov):
    assert _sweep(cov)[0].min() >= 0.0  # the events are in exact order
    l2, mass = sweep_measures(cov)
    l2_ref, mass_ref = sweep_measures_fraction(cov)
    assert abs(l2 - l2_ref) <= 1e-14 * l2_ref
    assert abs(mass - mass_ref) <= 1e-12
    return mass


def test_mass_identity_random_parameters():
    rng = np.random.default_rng(8)
    for _ in range(20):
        Q = int(rng.integers(5, 80))
        expo = rng.uniform(1.0, 2.0)
        mass = _assert_matches_fraction_sweep(build_cover(W0, Q, Q ** -expo))
        assert mass == pytest.approx(1.0, abs=1e-12)
    for Q in (25, 50, 100, 200):
        _assert_matches_fraction_sweep(build_cover(W0, Q, Q ** -1.5))
    # 2 delta >= 1: every interval also wraps whole turns around [0,1)
    _assert_matches_fraction_sweep(build_cover(W0, 1.5, 2 / 3))
    assert sweep_measures(build_cover(single_c_hook, 1, 1.0)) == (0.0, 1.0)
    _assert_matches_fraction_sweep(build_cover(single_c_hook, 1, 1.0))
    # exact ties: 1/8 + 1/16 = 1/4 - 1/16 across c = 8 and 4, and
    # 1/6 + 1/4 = 2/3 - 1/4 across c = 6 and 3 (equal nonzero r/c)
    for Q, delta in ((4, 1 / 16), (3, 1 / 4)):
        cov = build_cover(np.ones_like, Q, delta)
        _assert_matches_fraction_sweep(cov)
        # equal endpoints merge: as many pieces of positive width as the exact sweep
        assert np.count_nonzero(_sweep(cov)[0]) == len(step_function_fraction(cov)[1])
    # 1/10 + delta and 1/7 - delta differ by under 2^-60, so they share the
    # integer key and only r/c orders them
    _assert_matches_fraction_sweep(build_cover(np.ones_like, 7, 3 / 140))


def test_l2_error_riemann_oracle():
    cov = build_cover(W0, 50, 50 ** -1.5)
    l2, mass = sweep_measures(cov)
    mid = (np.arange(10 ** 7) + 0.5) / 10 ** 7
    riemann = float(np.mean((1.0 - itilde_eval_many(cov, mid)) ** 2))
    assert abs(l2 - riemann) / l2 < 1e-4
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_l2_error_decreases_with_Q():
    errs = [sweep_measures(build_cover(W0, Q, Q ** -1.5))[0] for Q in (25, 50, 100, 200)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    for Q, e in zip((25, 50, 100, 200), errs):
        cov = build_cover(W0, Q, Q ** -1.5)
        assert e <= 10 * Q * Q / (float(cov.delta) * cov.Lambda ** 2)


def test_step_function_reproduces_sweep_measures():
    for Q, expo in ((20, 1.4), (50, 1.5), (37, 1.9)):
        cov = build_cover(W0, Q, Q ** -expo)
        pos, hts = step_function_fraction(cov)
        widths = np.diff(pos)
        l2, mass = sweep_measures(cov)
        assert pos[0] == 0.0 and pos[-1] == 1.0 and len(hts) == len(widths)
        assert math.fsum(hts * widths) == pytest.approx(mass, abs=1e-12)
        assert math.fsum((1.0 - hts) ** 2 * widths) == pytest.approx(l2, abs=1e-12)


def test_l2_bound_ratio_divides_by_envelope():
    Q = 50
    cov = build_cover(W0, Q, Q ** -1.5)
    err = sweep_measures(cov)[0]
    envelope = Q * Q / (float(cov.delta) * cov.Lambda ** 2)
    assert l2_bound_ratio(cov, err) == pytest.approx(err / envelope, rel=1e-15)


def test_l2_bound_ratio_at_large_Q():
    ratios = []
    for Q in (400, 800):
        cov = build_cover(W0, Q, Q ** -1.5)
        err, mass = sweep_measures(cov)
        assert mass == pytest.approx(1.0, abs=1e-12)
        ratios.append(l2_bound_ratio(cov, err))
    # the envelope Q^2/(delta Lambda^2) tracks the error: the ratio stays
    # far below the bound of 10 and moves by under 5 % as Q doubles
    assert all(0.0 < r < 10.0 for r in ratios)
    assert ratios[1] == pytest.approx(ratios[0], rel=0.05)


def test_step_function_consistent_with_exact_eval():
    cov = build_cover(W0, 20, 20 ** -1.4)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, 200)
    fast = itilde_eval_many(cov, pts)
    for p, v in zip(pts[:50], fast[:50]):
        assert itilde_eval(cov, float(p)) == pytest.approx(float(v), abs=1e-9)


def test_monte_carlo_mass():
    cov = build_cover(W0, 50, 50 ** -1.5)
    rng = np.random.default_rng(42)
    pts = rng.uniform(0, 1, 10 ** 6)
    v = itilde_eval_many(cov, pts)
    mean = float(v.mean())
    sigma = float(v.std(ddof=1)) / math.sqrt(v.size)
    assert abs(mean - 1.0) <= 3 * sigma


def test_snap_dyadic_exact():
    d = snap_dyadic(0.1)
    assert d.denominator == 2 ** 60 or d.denominator & (d.denominator - 1) == 0


def test_detect_indicator():
    cov = build_cover(W0, 50, 50 ** -1.5)
    val = detect_additive(cov, {50: 1.0}, {50: 1.0}, 50)
    assert val.real == pytest.approx(1.0, abs=1e-10)
    assert abs(val.imag) < 1e-10


def test_detect_zero_sequences():
    cov = build_cover(W0, 25, 25 ** -1.5)
    assert detect_additive(cov, {}, {3: 1.0}, 5) == 0
    assert detect_additive(cov, (1, np.zeros(4)), (1, np.ones(4)), 4) == 0


def test_detect_random_sequences_against_convolution():
    rng = np.random.default_rng(7)
    f = rng.integers(0, 2, 100) * 2.0 - 1.0
    g = rng.integers(0, 2, 100) * 2.0 - 1.0
    exact = np.convolve(f, g)[2 * 50 - 2]  # indices start at m=1
    cov = build_cover(W0, 200, 200 ** -1.5)
    approx = detect_additive(cov, (1, f), (1, g), 50)
    assert abs(approx - exact) / abs(exact) < 0.05


def test_detect_error_shrinks_with_Q():
    rng = np.random.default_rng(7)
    f = rng.integers(0, 2, 100) * 2.0 - 1.0
    g = rng.integers(0, 2, 100) * 2.0 - 1.0
    exact = np.convolve(f, g)[2 * 50 - 2]
    errs = {}
    for Q in (100, 400):
        cov = build_cover(W0, Q, Q ** -1.5)
        errs[Q] = abs(detect_additive(cov, (1, f), (1, g), 50) - exact) / abs(exact)
    assert errs[400] <= 0.5 * errs[100]


@pytest.mark.parametrize("Q", [100, 400])
def test_detect_matches_fft_oracle(Q):
    rng = np.random.default_rng(7)
    f = rng.integers(0, 2, 100) * 2.0 - 1.0
    g = rng.integers(0, 2, 100) * 2.0 - 1.0
    cov = build_cover(W0, Q, Q ** -1.5)
    cases = [({50: 1.0}, {50: 1.0}, 50),
             ({3: 1.0, 40: -2.0, 97: 0.5}, {7: 1.5, 60: 1.0}, 52),
             ((1, f), (1, g), 50)]
    for a, b, n in cases:
        fast = detect_additive(cov, a, b, n)
        ref = detect_additive_fft(cov, a, b, n)
        assert fast.imag == 0.0
        assert abs(fast - ref) <= 1e-12 * max(1.0, abs(ref))
