import math

import numpy as np
import pytest
from scipy.special import jv

from cuspcorr.bessel import (BesselKernel, _hankel_grid, _hankel_zone, _series_grid, _series_zone,
                             _trapezoid_nodes, bessel_j, bessel_j_grid)
from cuspcorr.errors import ContractError
from oracles import bessel_j_scalar, hankel_grid_loop, j_hankel, j_integral, j_series


def test_values_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0
    assert bessel_j(11.0, 0.0) == 0.0


def test_contract():
    with pytest.raises(ContractError):
        bessel_j(-1.0, 2.0)
    with pytest.raises(ContractError):
        bessel_j(2.0, -0.5)
    for bad in (float("nan"), np.array([1.0, float("nan")])):
        with pytest.raises(ContractError):
            bessel_j_grid(11.0, bad)
    with pytest.raises(ContractError):
        bessel_j(11.0, float("nan"))


def test_strategy_agreement_series_vs_integral():
    # the two independent routes agree on a dense grid, orders 0..30
    rng = np.random.default_rng(11)
    xs = np.concatenate([rng.uniform(1e-3, 200.0, 970), np.linspace(0.05, 12.0, 30)])
    for nu in range(0, 31):
        exact = np.array([j_integral(nu, float(x)) for x in xs[:40]])
        for x, ref in zip(xs[:40], exact):
            val, ok = j_series(nu, float(x))
            if ok:
                assert abs(val - ref) < 1e-9


def test_auto_strategy_against_scipy():
    rng = np.random.default_rng(2)
    for nu in range(0, 31):
        xs = rng.uniform(1e-3, 200.0, 1000)
        mine = bessel_j_grid(nu, xs)
        ref = jv(nu, xs)
        err = np.abs(mine - ref)
        rel = err / np.maximum(np.abs(ref), 1e-30)
        assert np.all((rel < 1e-10) | (err < 1e-12))


def test_integral_representation_crosscheck_integer_order():
    # spot check the quadrature rule against scipy at awkward points
    for nu, x in [(11, 1.0), (11, 4 * math.pi), (15, 80.0), (30, 190.0), (0, 3.83170597)]:
        assert j_integral(nu, x) == pytest.approx(jv(nu, x), abs=5e-14)


def test_noninteger_order():
    for nu, x in [(0.5, 7.3), (2.25, 31.0), (5.75, 3.0)]:
        assert bessel_j(nu, x) == pytest.approx(jv(nu, x), abs=1e-10)


def test_noninteger_order_integral_zone():
    # between the zones the cosine integral's odd derivatives do not vanish
    # at pi for non-integer nu, so a trapezoid rule is second order only
    xs = np.linspace(0.5, 200.0, 400)
    for nu in (0.5, 1.5, 2.25, 3.7, 5.75, 10.5, 20.25, 29.9):
        mine = np.array([bessel_j(nu, float(x)) for x in xs])
        assert np.max(np.abs(mine - jv(nu, xs))) <= 1e-12, nu


def test_hankel_monitor_rejects_divergent_zone():
    # at x ~ 2 nu the expansion must flag itself untrustworthy for large nu
    val, ok = j_hankel(30.0, 61.0)
    assert not ok
    assert not _hankel_grid(30.0, np.array([61.0]))[1][0]


def test_series_monitor_rejects_cancellation_zone():
    val, ok = j_series(0.0, 60.0)
    assert not ok
    assert not _series_grid(0.0, np.array([60.0]))[1][0]


def test_underflow_region_is_negligible():
    # true value is ~1e-600; anything below the 1e-12 absolute contract is fine
    assert abs(bessel_j(400, 50.0)) < 1e-14
    assert bessel_j(900, 20.0) == 0.0  # series route detects the underflow exactly


def test_grid_matches_scalar():
    xs = np.linspace(0.0, 150.0, 400)
    kern = BesselKernel.of(11)
    grid = kern.grid(xs)
    for i in (0, 17, 100, 399):
        assert grid[i] == pytest.approx(bessel_j_scalar(11, float(xs[i])), abs=1e-12)


def test_kernel_strategies_named():
    # the zones: series up to series_cutoff, Hankel from hankel_cutoff on,
    # the cosine integral in between
    kern = BesselKernel.of(11)
    assert 1.0 <= kern.series_cutoff < 15.0 < kern.hankel_cutoff <= 1000.0
    kern30 = BesselKernel.of(30)
    assert kern30.series_cutoff < 100.0 < kern30.hankel_cutoff  # Hankel unsafe below 0.2 nu^2


@pytest.mark.parametrize("nu", [0.0, 11.0, 25.0, 0.5, 2.25])
def test_scalar_equals_grid(nu):
    # bessel_j is the grid evaluator on one value, bit for bit, in every zone
    # and where a fast route's monitor hands the value to the integral
    s, h = _series_zone(nu), _hankel_zone(nu)
    rng = np.random.default_rng(int(10 * nu))
    xs = np.concatenate([[0.0, 0.5 * s, s, 0.5 * (s + h), h, 1.05 * h, 3.0 * h, 60.0],
                         rng.uniform(0.0, 1.5 * h, 60)])
    for x in xs:
        assert bessel_j(nu, float(x)) == bessel_j_grid(nu, [x])[0], x
    if nu >= 11.0:  # the Hankel monitor rejects some arguments just above its cutoff
        assert not np.all(_hankel_grid(nu, xs[xs >= h])[1])


@pytest.mark.parametrize("nu", [0.0, 3.5, 11.0, 15.0, 25.0, 100.0])
def test_hankel_grid_matches_loop_oracle(nu):
    # the in-place loop performs the same roundings, so values and trusted
    # masks are equal bit for bit, far outside the Hankel zone included
    rng = np.random.default_rng(int(nu * 10))
    cutoffs = [0.0, _series_zone(nu), 20.0, 22.0, _hankel_zone(nu), 50.0, 3000.0]
    xs = np.concatenate([rng.uniform(0.0, 50.0, 5000), rng.uniform(20.0, 3000.0, 5000), cutoffs])
    with np.errstate(all="ignore"):  # x near 0 overflows both loops alike
        vals, ok = _hankel_grid(nu, xs)
        ref_vals, ref_ok = hankel_grid_loop(nu, xs)
    assert np.array_equal(vals, ref_vals, equal_nan=True)
    assert np.array_equal(ok, ref_ok)


@pytest.mark.parametrize("nu", [11.0, 25.0])
def test_grid_rows_independent(nu):
    # rows that cross the series, integral and Hankel zones, with the Hankel
    # arguments its monitor rejects just above the cutoff; a 2-D call equals
    # one 1-D call per row bit for bit
    kern = BesselKernel.of(nu)
    s, h = _series_zone(nu), _hankel_zone(nu)
    rng = np.random.default_rng(int(nu))
    tops = [0.5 * s, s, 0.5 * (s + h), h, 1.2 * h, 3.0 * h, 1.2 * h, 0.7 * h]
    rows = np.array([rng.permutation(np.concatenate([[0.0, s, h], rng.uniform(0.0, top, 297)]))
                     for top in tops])
    _, trusted = _hankel_grid(nu, rows[rows >= h])
    assert not np.all(trusted)  # some arguments are served by the integral route instead
    integral = (rows > s) & (rows < h)
    assert len({int(_trapezoid_nodes(nu, row[ok].max())) for row, ok in zip(rows, integral)
                if ok.any()}) > 2  # rows need different trapezoid rules
    batched = kern.grid(rows)
    assert np.array_equal(batched, np.vstack([kern.grid(row) for row in rows]))
    assert np.array_equal(kern.grid(rows[None]), batched[None])  # rows along the last axis
