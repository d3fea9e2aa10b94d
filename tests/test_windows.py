import math

import numpy as np
import pytest

from cuspcorr.errors import ContractError
from cuspcorr.quadrature import gl_nodes_weights
from cuspcorr.windows import (SmoothWindow, TransformKernel, bump_window, dot_decay_slope,
                              extract_oscillatory_parts, kuznetsov_transform_dot,
                              kuznetsov_transform_tilde, maass_bessel_kernel, mellin_at,
                              plateau_window, w_star, w_star_grid)
from cuspcorr import windows
from cuspcorr.bessel import BesselKernel
from cuspcorr.windows import _cos_cosh_rows
from oracles import cos_cosh_kernel_scalar, dot_point, tilde_point, w_star_point

W = bump_window()
# batched transforms against the per-point oracles, absolute; the largest
# difference measured is 7.2e-19, on values up to 1.6e-3
_ORACLE_TOL = 1e-16


def test_bump_boundary_and_center():
    assert W.value(1.0) == 0.0
    assert W.value(2.0) == 0.0
    assert W.value(1.5) == pytest.approx(math.exp(-4.0), rel=1e-15)


def test_mellin_at_one():
    # adaptive Simpson oracle value, frozen at tolerance 1e-12
    assert complex(mellin_at(W, 1.0)).real == pytest.approx(0.007029858406609656, abs=1e-12)


def test_mellin_vertical_decay():
    assert abs(mellin_at(W, 1 + 1000j)) < 1e-8
    assert abs(mellin_at(W, 1j * 500)) < 1e-6
    assert abs(mellin_at(W, 1j * 800)) < 1e-6


def test_w_star_precondition():
    with pytest.raises(ContractError):
        w_star(W, 12, 3.0, 1.0)   # z < 4|w|
    with pytest.raises(ContractError):
        w_star(W, 12, 10.0, 0.0)  # w = 0


def test_w_star_against_dense_oracle():
    # 10^4-node fixed Gauss-Legendre oracle
    def oracle(z, w, kappa):
        kernel = BesselKernel.of(kappa - 1)
        edges = np.linspace(1.0, 2.0, 157)
        total = 0.0
        for i in range(156):
            y, wq = gl_nodes_weights(edges[i], edges[i + 1], 64)
            total += np.sum(W.value(y) * kernel.grid(4 * math.pi * np.sqrt(y * w + z)) * wq)
        return total
    for (z, w) in [(100.0, 1.0), (40.0, 10.0), (100.0, -1.0)]:
        assert complex(w_star(W, 12, z, w)).real == pytest.approx(oracle(z, w, 12), abs=1e-8)


def test_w_star_linearity():
    doubled = SmoothWindow(lambda x: 2.0 * W.value(x), (1.0, 2.0))
    assert complex(w_star(doubled, 12, 100.0, 1.0)) == pytest.approx(
        2 * complex(w_star(W, 12, 100.0, 1.0)), abs=1e-12)


def test_extract_recovers_synthetic_model():
    z = np.arange(100.0, 200.0, 1.5)
    A = 0.37 + 0.21j
    synth = A * z ** -0.25 * np.exp(2j * math.pi * 2.0 * np.sqrt(z))
    wp, wm, res = extract_oscillatory_parts(W, 12, 1.0, z, samples=synth)
    assert np.abs(wp - A).max() < 1e-8
    assert np.abs(wm).max() < 1e-8
    assert res < 1e-8


def test_extract_real_transform_fit_quality():
    z = np.arange(100.0, 200.0, 1.5)
    samples = w_star_grid(W, 12, z, 1.0)
    wp, wm, res = extract_oscillatory_parts(W, 12, 1.0, z, samples=samples)
    assert res < 1e-4 * np.abs(samples).max()
    # real data forces conjugate amplitudes
    assert np.abs(wp - np.conj(wm)).max() < 1e-12
    # flatness: |dW+/dz| z <= 10 sup |W+|
    flat = np.abs(np.gradient(wp, z)) * z
    assert flat.max() <= 10 * np.abs(wp).max()


def test_extract_grid_too_coarse():
    z = np.arange(100.0, 200.0, 4.0)  # period sqrt(z)/4 ~ 2.5 < spacing
    with pytest.raises(ContractError):
        extract_oscillatory_parts(W, 12, 1.0, z, samples=np.zeros(z.size))


def test_vanishing_regime_suppression():
    # deep in sqrt(z)/w <= 0.1 the fitted amplitudes are small against the
    # moderate-regime amplitude scale; the measured suppression at this
    # window is ~5e-5, asserted at 1e-3 with headroom
    w = 1000.0
    z = np.arange(4000.0, 10000.0, 12.0)
    samples = w_star_grid(W, 12, z, w)
    wp, wm, _ = extract_oscillatory_parts(W, 12, w, z, samples=samples)
    deep = max(np.abs(wp).max(), np.abs(wm).max())
    zmod = np.arange(3.6e6, 4.0e6, 400.0)
    ref_samples = w_star_grid(W, 12, zmod, w)
    ref_amp = np.abs(ref_samples * zmod ** 0.25).max()
    assert deep < 1e-3 * ref_amp


def test_transform_kernel_contracts():
    with pytest.raises(ContractError):
        TransformKernel(Z=50.0, alpha=0.9)
    with pytest.raises(ContractError):
        TransformKernel(Z=-1.0)
    phi = TransformKernel(Z=50.0, alpha=0.5, tau=1.0)
    x = np.array([60.0])
    expected = W.value(1.2) * np.exp(1j * (0.5 * 60.0 + 1.0 * math.log(1.2)))
    assert phi(x)[0] == pytest.approx(expected)


def test_dot_transform_zero_window_and_contract():
    phi = TransformKernel(Z=50.0)
    assert kuznetsov_transform_dot(phi.zero(), 12) == 0
    with pytest.raises(ContractError):
        kuznetsov_transform_dot(phi, 3)


def test_dot_transform_decay():
    phi = TransformKernel(Z=50.0)
    # negligible past 10 Z
    for k in (502, 600, 800):
        assert abs(kuznetsov_transform_dot(phi, k)) < 1e-8
    prof = dot_decay_slope(phi)
    assert prof["slope"] <= -3.0


def test_w_star_grid_matches_per_point_oracle():
    for w, z in ((1.0, np.linspace(4.0, 200.0, 50)), (-1.0, np.linspace(4.0, 200.0, 50)),
                 (10.0, np.linspace(40.0, 400.0, 30))):
        oracle = np.array([w_star_point(W, 12, float(q), w) for q in z])
        assert np.abs(w_star(W, 12, z, w) - oracle).max() <= _ORACLE_TOL


@pytest.mark.parametrize("phi", [TransformKernel(Z=50.0, alpha=0.5),
                                 TransformKernel(Z=30.0, alpha=-0.3, tau=2.0)])
def test_dot_and_tilde_match_per_point_oracles(phi):
    ks = list(range(2, 120, 6))
    oracle = np.array([dot_point(phi, k) for k in ks])
    assert np.abs(kuznetsov_transform_dot(phi, ks) - oracle).max() <= _ORACLE_TOL
    ts = np.linspace(0.0, 10.0, 4)
    oracle = np.array([tilde_point(phi, float(t)) for t in ts])
    assert np.abs(kuznetsov_transform_tilde(phi, ts) - oracle).max() <= _ORACLE_TOL


def test_cos_cosh_rows_match_scalar_kernel():
    # measured difference at most 9.4e-16 on values up to 0.75
    rng = np.random.default_rng(5)
    x, t = rng.uniform(0.5, 200.0, 300), rng.uniform(0.0, 12.0, 300)
    oracle = np.array([cos_cosh_kernel_scalar(a, b) for a, b in zip(x, t)])
    assert np.abs(_cos_cosh_rows(x, t) - oracle).max() <= 1e-14


def test_grid_point_has_the_same_bits_in_any_grid():
    grid = np.sort(np.append(np.linspace(4.0, 200.0, 200), 100.0))
    assert w_star(W, 12, grid, 1.0)[np.searchsorted(grid, 100.0)] == w_star(W, 12, 100.0, 1.0)
    phi = TransformKernel(Z=50.0, alpha=0.5)
    ks = list(range(2, 61, 2))
    assert kuznetsov_transform_dot(phi, ks)[ks.index(12)] == kuznetsov_transform_dot(phi, 12)
    ts = np.linspace(0.0, 10.0, 10)
    assert kuznetsov_transform_tilde(phi, ts)[-1] == kuznetsov_transform_tilde(phi, 10.0)


def test_dot_checks_every_k_before_integrating(monkeypatch):
    def no_integral(*args, **kwargs):
        raise AssertionError("an integral ran before the k check")

    monkeypatch.setattr(windows, "osc_quad_rows", no_integral)
    with pytest.raises(ContractError):
        kuznetsov_transform_dot(TransformKernel(Z=50.0), [2, 4, 7])


def test_tilde_transform_small_for_large_Z():
    phi = TransformKernel(Z=50.0)
    for t in (0.0, 2.0, 5.0, 10.0):
        assert abs(kuznetsov_transform_tilde(phi, t)) < 1e-6


def test_maass_kernel_against_mpmath():
    import mpmath as mp
    mp.mp.dps = 30
    for (x, t) in [(50.0, 1.0), (80.0, 3.0), (60.0, 0.5), (100.0, 7.0)]:
        ref = complex((mp.besselj(2j * t, x) - mp.besselj(-2j * t, x)) / mp.sinh(mp.pi * t))
        assert maass_bessel_kernel(x, t) == pytest.approx(ref, abs=1e-12)


def test_plateau_window():
    p = plateau_window(0.01, 0.05, 20.0, 100.0)
    xs = np.array([0.005, 0.05, 1.0, 20.0, 99.999, 150.0])
    vals = p.value(xs)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(1.0)
    assert vals[2] == 1.0
    assert vals[3] == pytest.approx(1.0)
    assert vals[5] == 0.0
    with pytest.raises(ContractError):
        plateau_window(1.0, 0.5, 2.0, 3.0)
