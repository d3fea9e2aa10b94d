import math

import numpy as np
import pytest

from cuspcorr.arith import ramanujan_sum
from cuspcorr.circle import build_cover
from cuspcorr.coeffs import Eigenform, make_eigenform
from cuspcorr.correlations import (EULER_GAMMA, ExperimentConfig, divisor_main_term,
                                   gamma_star_norm, pipeline_fidelity, scaling_study,
                                   shifted_pair_correlation, support_tracking_window,
                                   triple_correlation, wilton_sup)
from cuspcorr.errors import ContractError
from cuspcorr.windows import bump_window
from oracles import detect_additive_fft, divisor_blocks_loop

GAMMA_50_DIGITS = "0.57721566490153286060651209008240243104215933593992"


def test_euler_gamma_constant():
    assert abs(EULER_GAMMA - float(GAMMA_50_DIGITS)) < 1e-16


def test_config_contracts():
    with pytest.raises(ContractError):
        ExperimentConfig(X=100, H=50.0)   # H > X/3
    with pytest.raises(ContractError):
        ExperimentConfig(X=100, H=0.4)    # H < 1
    with pytest.raises(ContractError):
        ExperimentConfig(X=100, H=10.0, Hp=5.0)
    with pytest.raises(ContractError):
        ExperimentConfig(X=100, H=10.0, weights=(14, 12, 12))
    for weights in [(12,), (12, 12), (12, 12, 12, 12)]:  # exactly three, never padded
        with pytest.raises(ContractError):
            ExperimentConfig(X=100, H=10.0, weights=weights)


def test_h_window_degenerate_edges():
    # H below 1 is excluded at the config level (the window would be empty)
    with pytest.raises(ContractError):
        ExperimentConfig(X=300, H=0.49)
    # at H = 1 the only integer shifts are the support endpoints, where W vanishes
    cfg = ExperimentConfig(X=300, H=1.0)
    assert shifted_pair_correlation(cfg)["value"] == 0.0


def test_pair_zero_sequence():
    cfg = ExperimentConfig(X=50, H=10.0)
    zeros = np.zeros(200)
    r = shifted_pair_correlation(cfg, lambda_override={1: zeros})
    assert r["value"] == 0.0


def test_pair_against_reordered_loop(form12):
    cfg = ExperimentConfig(X=20, H=6.0, seq="ones")
    r = shifted_pair_correlation(cfg)
    W = bump_window()
    acc = math.fsum(
        float(W.value(h / 6.0)) * float(form12.lam[n + h]) * float(form12.lam[n - h])
        for n in range(20, 41) for h in range(6, 13)
    )
    assert r["value"] == pytest.approx(acc, rel=1e-10)


def test_triple_against_reordered_loop(form12):
    cfg = ExperimentConfig(X=100, H=20.0)
    r = triple_correlation(cfg)
    W = bump_window()
    acc = math.fsum(
        float(W.value(h / 20.0)) * float(form12.lam[n - h] * form12.lam[n] * form12.lam[n + h])
        for h in range(20, 41) for n in range(100, 201)
    )
    assert r["value"] == pytest.approx(acc, rel=1e-10)


def test_triple_symmetry_under_h_reflection(form12, form16):
    # reflecting the h-window to negative shifts and swapping lambda1 <-> lambda3
    # is the change of variable h -> -h and must reproduce the value exactly
    cfg = ExperimentConfig(X=80, H=15.0, weights=(12, 12, 16))
    value = triple_correlation(cfg)["value"]
    W = bump_window()
    reflected = math.fsum(
        float(W.value(-h / 15.0)) * float(form16.lam[n - h]) * float(form12.lam[n])
        * float(form12.lam[n + h])
        for h in range(-30, -14) for n in range(80, 161)
    )
    assert value == pytest.approx(reflected, rel=1e-12)


def test_window_support_vanishing(form12):
    # contributions vanish for h outside [H, 2H]: enlarging the table
    # changes nothing because W clips the h range
    cfg = ExperimentConfig(X=60, H=12.0)
    r1 = shifted_pair_correlation(cfg)
    assert r1["h_min"] >= 12 and r1["h_max"] <= 24


def test_bound_ratio_stays_bounded_over_seeds():
    ratios = []
    for seed in range(20):
        cfg = ExperimentConfig(X=10 ** 4, H=float(round((10 ** 4) ** 0.75)),
                               seq="rademacher", seed=seed)
        ratios.append(shifted_pair_correlation(cfg)["bound_ratio"])
    assert max(ratios) <= 10.0


def test_divisor_main_term_d1_piece():
    # with d_max = 1 the predicted term is H W^(1) sum a(n) (log n + 2 gamma)^2
    cfg = ExperimentConfig(X=200, H=20.0, seq="ones")
    r = divisor_main_term(cfg, 1, enforce_tail=False)
    from cuspcorr.windows import mellin_at
    w1 = float(mellin_at(bump_window(), 1.0).real)
    n = np.arange(200, 401, dtype=float)
    expected = 20.0 * w1 * float(np.sum((np.log(n) + 2 * EULER_GAMMA) ** 2))
    assert r["main_term"] == pytest.approx(expected, rel=1e-12)
    # and the guard fires when the tail cannot be certified
    with pytest.raises(ContractError):
        divisor_main_term(cfg, 1)


def test_divisor_main_term_tail_guard():
    cfg = ExperimentConfig(X=2000, H=44.0, seq="ones")
    with pytest.raises(ContractError):
        divisor_main_term(cfg, 0)


def test_divisor_deviation_shrinks(form12):
    c4 = ExperimentConfig(X=10 ** 4, H=float(round(10 ** 2)), seq="ones")
    c5 = ExperimentConfig(X=10 ** 5, H=float(round((10 ** 5) ** 0.5)), seq="ones")
    d4 = divisor_main_term(c4, 1000)
    d5 = divisor_main_term(c5, 1000)
    assert d5["relative_deviation"] < d4["relative_deviation"]


@pytest.mark.parametrize("seq", ["ones", "rademacher"])
@pytest.mark.parametrize("d_max", [100, 300])
def test_divisor_main_term_against_gcd_loop(seq, d_max):
    cfg = ExperimentConfig(X=2000, H=44.0, seq=seq, seed=3)
    r = divisor_main_term(cfg, d_max, enforce_tail=False)
    main_term, tail_proxy = divisor_blocks_loop(cfg, d_max)
    assert r["main_term"] == pytest.approx(main_term, rel=1e-10)
    assert r["tail_proxy"] == pytest.approx(tail_proxy, rel=1e-10)


def test_wilton_small_and_dc(form12):
    r = wilton_sup(form12, 1)
    assert r["sup"] == pytest.approx(1.0)
    r = wilton_sup(form12, 1024)
    direct = float(np.sum(form12.lam[1:1025]))
    assert r["dc_value"] == pytest.approx(direct, abs=1e-9)
    with pytest.raises(ContractError):
        wilton_sup(form12, 100, grid_factor=2)


def test_wilton_fft_matches_direct_eval(form12):
    x = 2 ** 14
    r = wilton_sup(form12, x)
    n = np.arange(1, x + 1)
    direct = abs(np.sum(form12.lam[1:x + 1] * np.exp(2j * np.pi * r["argmax_alpha"] * n)))
    assert r["sup"] == pytest.approx(direct, abs=1e-8 * max(1.0, direct))


def test_gamma_star_zero_form(form12):
    dead = Eigenform(weight=12, a=[0] * 200, lam=np.zeros(200))
    r = gamma_star_norm(dead, form12, 64, 64, 0.1)
    assert r["norm_sq"] == 0.0


def test_gamma_star_parseval(form12):
    M1 = M2 = 64
    r = gamma_star_norm(form12, form12, M1, M2, 0.1)
    m = np.arange(M1, 2 * M1 + 1, dtype=float)
    lam = form12.lam[M1:2 * M1 + 1]
    f = lam * (m / M1) ** -0.25 * np.exp(1j * 0.1 * np.sqrt(m))
    L = 1 << int(np.ceil(np.log2(8 * (M1 + M2))))
    F = np.fft.fft(np.concatenate([f, np.zeros(L - f.size)]))
    parseval = float(np.sum(np.abs(F * F) ** 2) / L)
    assert r["conv_norm_sq"] == pytest.approx(parseval, rel=1e-8)
    assert r["parseval_bound_ratio"] <= 1.0


def test_pipeline_degenerate_window():
    with pytest.raises(ContractError):
        pipeline_fidelity(n=500, H=0.4, Q=100.0)
    # H = 1: only boundary shifts, where the window vanishes; both sides zero
    r = pipeline_fidelity(n=500, H=1.0, Q=50.0)
    assert r["E_direct"] == 0.0
    assert abs(complex(r["E_reconstructed_real"], r["E_reconstructed_imag"])) < 1e-12


def test_pipeline_fidelity_acceptance_instance():
    r = pipeline_fidelity(n=500, H=50.0, Hp=160.0, Q=300.0)
    assert r["rel_error"] < 0.05
    # reconstruction is honest: E_direct equals the exact convolution by design
    assert r["abs_error"] < 1e-3


def test_pipeline_fidelity_at_Q_ten_thousand():
    r = pipeline_fidelity(n=500, H=50.0, Hp=160.0, Q=10_000.0)
    assert r["rel_error"] < 0.05


def test_pipeline_error_trend_in_Q():
    errs = [pipeline_fidelity(n=500, H=50.0, Hp=160.0, Q=q)["rel_error"]
            for q in (100.0, 200.0, 400.0)]
    assert errs[1] <= errs[0] * 1.1
    assert errs[2] <= errs[1] * 1.1


@pytest.mark.parametrize("Q", [300.0, 600.0])
def test_pipeline_error_is_ramanujan_expansion(Q):
    """The detector error at the criterion-9 instance is an exact arithmetic sum.

    With C(k) = sum_{m1+m2=2n+k} f(m1) g(m2), the detector returns
    sum_k C(k) I(k), where I(k) = sinc(2 k delta) Lambda^-1 sum_c w(c) r_c(k)
    and r_c is the Ramanujan sum.  I(0) = 1 and C(0) = E_direct, so the
    error is sum_{k != 0} C(k) I(k): smoothed Moebius sums that change sign
    as Q moves, which is why the error is not monotone in Q.  The same
    error from the FFT detector (one fold per modulus and a Gauss-Legendre
    eta-average) agrees with the closed form.
    """
    n, H, Hp = 500, 50.0, 160.0
    r = pipeline_fidelity(n=n, H=H, Hp=Hp, Q=Q)
    err = complex(r["E_reconstructed_real"], r["E_reconstructed_imag"]) - r["E_direct"]

    # the two localized sequences of the reconstruction, rebuilt independently
    window = bump_window()
    lo, hi = window.support
    hs = np.arange(max(1, math.ceil(H * lo)), math.floor(H * hi) + 1)
    lam = make_eigenform(12, n + 2 * int(hs[-1]) + 4).lam
    f = lam[n + hs] * window.value(hs / H)
    m2 = np.arange(n - math.floor(3.2 * H), n - math.ceil(0.45 * H) + 1)
    g = lam[m2] * support_tracking_window(H, Hp).value((n - m2) / Hp)
    conv = np.convolve(f, g)
    ks = int(hs[0]) + int(m2[0]) - n + np.arange(conv.size)

    cover = build_cover(window, Q, Q ** -1.5)
    delta = float(cover.delta)
    expansion = 0.0
    for k, ck in zip(ks, conv):
        if k != 0:
            s = math.fsum(w * ramanujan_sum(c, int(k)) for c, w in cover.weights.items())
            expansion += ck * np.sinc(2 * k * delta) * s / cover.Lambda
    assert abs(err - expansion) <= 1e-9 * abs(err)
    fft_err = detect_additive_fft(cover, (n + int(hs[0]), f), (int(m2[0]), g), n) - r["E_direct"]
    assert abs(err - fft_err) <= 1e-9 * abs(fft_err)


def test_scaling_synthetic_ones():
    ones = np.ones(300_000)
    r = scaling_study([2 ** 10, 2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14], 0.75, "pair",
                      lambda_override={1: ones, 2: ones})
    assert not r["degenerate"]
    assert r["fitted_slope"] == pytest.approx(1.75, abs=0.05)


def test_scaling_degenerate():
    zeros = np.zeros(300_000)
    r = scaling_study([2 ** 10, 2 ** 11, 2 ** 12, 2 ** 13], 0.5, "pair",
                      lambda_override={1: zeros, 2: zeros})
    assert r["degenerate"]


def test_scaling_real_data(form12):
    r = scaling_study([2 ** 12, 2 ** 13, 2 ** 14, 2 ** 15, 2 ** 16], 0.75, "pair")
    assert r["fitted_slope"] <= r["bound_slope"] + 0.15
    with pytest.raises(ContractError):
        scaling_study([1024, 2048], 0.75)
