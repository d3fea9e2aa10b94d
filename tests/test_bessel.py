import math

import numpy as np
import pytest
from scipy.special import jv

from cuspcorr.bessel import (BesselKernel, _hankel_grid, _hankel_zone, _miller, _miller_start,
                             _series_grid, _series_zone, bessel_j, bessel_j_orders)
from cuspcorr.errors import ContractError, NumericsError
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
            BesselKernel.of(11.0).grid(bad)
    with pytest.raises(ContractError):
        bessel_j(11.0, float("nan"))
    # orders are integers; an integral float or numpy integer is one
    for bad in (0.5, 2.25, 11.000001, float("nan"), float("inf"), "3", None):
        with pytest.raises(ContractError):
            BesselKernel.of(bad)
    with pytest.raises(ContractError):
        bessel_j(0.5, 1.0)
    with pytest.raises(ContractError):
        bessel_j_orders([11, 0.5], [1.0])
    assert BesselKernel.of(np.int64(11)) == BesselKernel.of(11.0) == BesselKernel.of(11)


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
        mine = BesselKernel.of(nu).grid(xs)
        ref = jv(nu, xs)
        err = np.abs(mine - ref)
        rel = err / np.maximum(np.abs(ref), 1e-30)
        assert np.all((rel < 1e-10) | (err < 1e-12))


def test_integral_representation_crosscheck_integer_order():
    # spot check the quadrature rule against scipy at awkward points
    for nu, x in [(11, 1.0), (11, 4 * math.pi), (15, 80.0), (30, 190.0), (0, 3.83170597)]:
        assert j_integral(nu, x) == pytest.approx(jv(nu, x), abs=5e-14)


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
    # Miller's recurrence in between
    kern = BesselKernel.of(11)
    assert 1.0 <= kern.series_cutoff < 15.0 < kern.hankel_cutoff <= 1000.0
    kern30 = BesselKernel.of(30)
    assert kern30.series_cutoff < 100.0 < kern30.hankel_cutoff  # Hankel unsafe below 0.2 nu^2


@pytest.mark.parametrize("nu", [0.0, 11.0, 25.0])
def test_scalar_equals_grid(nu):
    # bessel_j is the grid evaluator on one value, bit for bit, in every zone
    # and where a fast route's monitor hands the value to the recurrence
    s, h = _series_zone(nu), _hankel_zone(nu)
    rng = np.random.default_rng(int(10 * nu))
    xs = np.concatenate([[0.0, 0.5 * s, s, 0.5 * (s + h), h, 1.05 * h, 3.0 * h, 60.0],
                         rng.uniform(0.0, 1.5 * h, 60)])
    for x in xs:
        assert bessel_j(nu, float(x)) == BesselKernel.of(nu).grid([x])[0], x
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
    # rows that cross the series, recurrence and Hankel zones, with the
    # Hankel arguments its monitor rejects just above the cutoff; a 2-D call
    # equals one 1-D call per row bit for bit
    kern = BesselKernel.of(nu)
    s, h = _series_zone(nu), _hankel_zone(nu)
    rng = np.random.default_rng(int(nu))
    tops = [0.5 * s, s, 0.5 * (s + h), h, 1.2 * h, 3.0 * h, 1.2 * h, 0.7 * h]
    rows = np.array([rng.permutation(np.concatenate([[0.0, s, h], rng.uniform(0.0, top, 297)]))
                     for top in tops])
    _, trusted = _hankel_grid(nu, rows[rows >= h])
    assert not np.all(trusted)  # some arguments are served by the recurrence instead
    batched = kern.grid(rows)
    assert np.array_equal(batched, np.vstack([kern.grid(row) for row in rows]))
    assert np.array_equal(kern.grid(rows[None]), batched[None])  # rows along the last axis


def test_orders_equal_one_order_one_argument_calls():
    # every zone of every order, monitor rejections, orders above the
    # recurrence's start K(x) (199 at x < 150) and a repeated order: each
    # value of the many-order call is the one-order, one-value call's
    orders = [0, 1, 11, 25, 11, 60, 199]
    rng = np.random.default_rng(3)
    xs = np.concatenate([[0.0, 9.0, 24.2, 125.0, 2.404825557695773],
                         rng.uniform(0.0, 40.0, 40), rng.uniform(40.0, 900.0, 40)])
    table = bessel_j_orders(orders, xs.reshape(5, 17))
    assert table.shape == (len(orders), 5, 17)
    for row, n in zip(table, orders):
        assert [bessel_j(n, float(x)) for x in xs] == row.ravel().tolist(), n
    assert np.array_equal(bessel_j_orders(np.array([11]), xs), BesselKernel.of(11).grid(xs)[None])


def test_miller_against_integral_oracle_scipy_and_mpmath():
    # the recurrence on its own, every order 0..200 at once, x up to 2000:
    # within 3e-14 of the trapezoid oracle.  scipy's jv is itself off by up
    # to 4.2e-14 at x near 2000 (against 30-digit mpmath), so it gets 5e-14,
    # and its worst points are checked against mpmath
    import mpmath

    orders = list(range(201))
    xs = np.concatenate([np.linspace(2.5, 300.0, 120), np.linspace(300.0, 2000.0, 60)])
    mine = _miller(orders, xs)
    ref = jv(np.array(orders)[:, None], xs)
    err = np.abs(mine - ref)
    assert err.max() <= 5e-14
    for n in range(0, 201, 25):
        for x in xs[::15]:
            assert abs(mine[n, np.searchsorted(xs, x)] - j_integral(n, float(x))) <= 3e-14, (n, x)
    mpmath.mp.dps = 30
    for flat in np.argsort(err, axis=None)[-3:]:
        n, j = np.unravel_index(flat, err.shape)
        assert abs(mine[n, j] - float(mpmath.besselj(int(n), float(xs[j])))) <= 1e-15


def test_miller_start_bounds_the_dropped_orders():
    # orders from K(x) on are returned as 0, so |J_n(x)| <= 2^-53 there;
    # and K(x) is derived, not padded: at most 5 orders above the first
    # order at which |J| stays below 2^-53
    xs = np.concatenate([np.linspace(0.05, 30.0, 120), np.geomspace(30.0, 20000.0, 60)])
    K = _miller_start(xs)
    assert np.all(K % 2 == 0)
    tail = np.abs(jv(K[:, None] + np.arange(30), xs[:, None]))
    assert tail.max() <= 2.0 ** -53
    assert np.all(np.abs(jv(K - 6, xs)) > 2.0 ** -53)


def test_miller_overflow_is_a_numerics_error():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError):
            _miller([0], np.array([1e-100]))
