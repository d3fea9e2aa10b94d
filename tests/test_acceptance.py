"""Acceptance criteria, one test per criterion, timed and reported.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  One sub-clause, the single Q-doubling comparison of criterion
9c, is implemented exactly as specified and fails at the detector's
arithmetic fluctuation floor; the analysis lives in the README
(Acceptance status) and in the test's docstring.
"""

import math
import time

import numpy as np
import pytest

from cuspcorr.arith import kloosterman, ramanujan_sum, weil_bound
from cuspcorr.circle import build_cover, sweep_measures
from cuspcorr.coeffs import (divisor_sieve, eta_power_qexp_naive, hecke_relation_report,
                             make_eigenform)
from cuspcorr.correlations import (ExperimentConfig, divisor_main_term, pipeline_fidelity,
                                   shifted_pair_correlation, wilton_sup)
from cuspcorr.spectral import petersson_table
from cuspcorr.voronoi import voronoi_check, voronoi_instance, voronoi_rhs
from cuspcorr.windows import bump_window
from oracles import itilde_eval_many


@pytest.fixture(scope="module", autouse=True)
def warm_tables():
    # shared coefficient tables; built once, reused by every criterion
    make_eigenform(12, 140_000)
    make_eigenform(16, 140_000)


def report(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {elapsed:.1f}s (budget {budget:.0f}s) {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded runtime budget ({elapsed:.1f}s)"


def test_criterion_1_coefficient_exactness():
    t0 = time.perf_counter()
    fast = make_eigenform(12, 8).a[1:9]
    naive = eta_power_qexp_naive(24, 8)
    ok = fast == naive and (fast[1] == naive[1] == -24) and (fast[4] == naive[4] == 4830)
    for weight in (12, 16):
        form = make_eigenform(weight, 300 * 300)
        rep = hecke_relation_report(form, 300)
        ok = ok and rep["violations"] == 0
    report("criterion 1 (coefficient exactness + Hecke relation)",
           ok, time.perf_counter() - t0, 10.0)


def test_criterion_2_deligne_bound():
    t0 = time.perf_counter()
    tau = divisor_sieve(10 ** 5)
    ok = True
    for weight in (12, 16):
        form = make_eigenform(weight, 10 ** 5)
        kpow = weight - 1
        for n in range(1, 10 ** 5 + 1):
            # |lambda(n)| <= tau(n), checked exactly: a(n)^2 <= tau(n)^2 n^(k-1)
            if form.a[n] * form.a[n] > int(tau[n]) ** 2 * n ** kpow:
                ok = False
                break
    report("criterion 2 (Deligne bound to 1e5, both weights)",
           ok, time.perf_counter() - t0, 30.0)


def test_criterion_3_kloosterman_suite():
    t0 = time.perf_counter()
    ok = True
    for c in range(1, 201):
        for a in range(1, 51):
            if abs(kloosterman(a, 0, c) - ramanujan_sum(c, a)) > 1e-9:
                ok = False
    for c in range(1, 501):
        for a in range(1, 11):
            for b in range(1, 11):
                if abs(kloosterman(a, b, c)) > weil_bound(a, b, c) * (1 + 1e-12):
                    ok = False
    for c1 in range(2, 51):
        for c2 in range(c1 + 1, 51):
            if math.gcd(c1, c2) != 1:
                continue
            c2bar = pow(c2, -1, c1)
            c1bar = pow(c1, -1, c2)
            lhs = kloosterman(1, 1, c1 * c2)
            rhs = kloosterman(c2bar, c2bar, c1) * kloosterman(c1bar, c1bar, c2)
            if abs(lhs - rhs) > 1e-9:
                ok = False
    report("criterion 3 (Kloosterman: Ramanujan degeneration, Weil, twisted mult.)",
           ok, time.perf_counter() - t0, 60.0)


def test_criterion_4_jutila_l2():
    t0 = time.perf_counter()
    w0 = bump_window()
    cov50 = build_cover(w0, 50, 50 ** -1.5)
    l2, mass = sweep_measures(cov50)
    mid = (np.arange(10 ** 7) + 0.5) / 10 ** 7
    riemann = float(np.mean((1.0 - itilde_eval_many(cov50, mid)) ** 2))
    ok = abs(l2 - riemann) / l2 < 1e-4
    ok = ok and abs(mass - 1.0) < 1e-12
    prev = None
    for Q in (25, 50, 100, 200):
        cov = build_cover(w0, Q, Q ** -1.5)
        err, m = sweep_measures(cov)
        ok = ok and abs(m - 1.0) < 1e-12
        ok = ok and err <= 10 * Q * Q / (float(cov.delta) * cov.Lambda ** 2)
        if prev is not None:
            ok = ok and err < prev
        prev = err
    report("criterion 4 (Farey cover: exact L2 vs 1e7 Riemann, bound, mass)",
           ok, time.perf_counter() - t0, 120.0,
           f"sweep={l2:.6f} riemann={riemann:.6f}")


def test_criterion_5_voronoi_identity():
    t0 = time.perf_counter()
    errors = {(weight, b, c, N): voronoi_check(voronoi_instance(weight, b, c, N))["relative_error"]
              for weight in (12, 16) for (b, c) in ((1, 1), (1, 2), (1, 3), (2, 5))
              for N in (50.0, 200.0)}
    worst = max(errors, key=errors.get)
    ok = all(err < 1e-6 for err in errors.values())  # a NaN error fails too
    _, diag = voronoi_rhs(voronoi_instance(12, 1, 3, 50.0))
    n0 = diag["n_stop"]
    v1, _ = voronoi_rhs(voronoi_instance(12, 1, 3, 50.0, rhs_truncation=n0))
    v2, _ = voronoi_rhs(voronoi_instance(12, 1, 3, 50.0, rhs_truncation=2 * n0))
    ok = ok and abs(v1 - v2) < 1e-8
    report("criterion 5 (Voronoi identity grid + truncation doubling)",
           ok, time.perf_counter() - t0, 300.0,
           f"worst rel err {errors[worst]:.2e} at (weight, b, c, N) = {worst}, "
           f"doubling change {abs(v1 - v2):.2e}")


def test_criterion_6a_eigenvalue_recovery():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for k in (12, 16):
        table = petersson_table(k, 10, 1000)
        form = make_eigenform(k, 10)
        p11 = table[0, 0]
        for m in range(1, 11):
            for n in range(1, 11):
                r2 = abs(table[m - 1, n - 1] / p11 - float(form.lam[m] * form.lam[n]))
                worst = max(worst, r2)
                ok = ok and r2 < 1e-8
    report("criterion 6a (trace-formula eigenvalue recovery, k=12,16)",
           ok, time.perf_counter() - t0, 120.0, f"worst r2 {worst:.2e}")


def test_criterion_6b_weight14_literal_control():
    """Weight-14 control: |P14(m,n)| < 1e-8 for m,n <= 10 at c_max = 1000.

    The specification states the control as |P14(m,n) - delta_mn| < 1e-8,
    which contradicts its own premise: dim S_14(SL_2(Z)) = 0, so the
    spectral side of the Petersson formula is an empty sum and
    P14(m,n) = delta_mn + 2 pi i^-14 sum_c S(m,n;c)/c J_13(4 pi sqrt(mn)/c)
    vanishes identically.  The Kloosterman series cancels the diagonal
    term, so the expected value is 0, not delta_mn.
    """
    t0 = time.perf_counter()
    table = petersson_table(14, 10, 1000)
    dev = float(np.abs(table).max())
    report("criterion 6b (weight-14 control, empty space forces |P14| < 1e-8)",
           dev < 1e-8, time.perf_counter() - t0, 120.0,
           f"max |P14| = {dev:.3e}")


def test_criterion_7_wilton_exponent():
    t0 = time.perf_counter()
    form = make_eigenform(12, 2 ** 16)
    pts = []
    for e in range(10, 17):
        r = wilton_sup(form, 2 ** e)
        pts.append((e * math.log(2), math.log(r["sup"])))
    slope = float(np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0])
    report("criterion 7 (twisted-sum sup-norm exponent)",
           0.45 <= slope <= 0.65, time.perf_counter() - t0, 120.0,
           f"fitted slope {slope:.3f}")


def test_criterion_8_main_term_onset():
    t0 = time.perf_counter()
    d4 = divisor_main_term(ExperimentConfig(X=10 ** 4, H=100.0, seq="ones"), 1000)
    d5 = divisor_main_term(
        ExperimentConfig(X=10 ** 5, H=float(round(10 ** 2.5)), seq="ones"), 1000)
    ok = d5["relative_deviation"] < d4["relative_deviation"]
    report("criterion 8 (divisor main-term deviation shrinks, 1e4 -> 1e5)",
           ok, time.perf_counter() - t0, 300.0,
           f"dev(1e4)={d4['relative_deviation']:.2e} dev(1e5)={d5['relative_deviation']:.2e}")


def test_criterion_9a_bound_ratio_stability():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        cfg = ExperimentConfig(X=10 ** 4, H=float(round((10 ** 4) ** 0.75)),
                               seq="rademacher", seed=seed)
        worst = max(worst, shifted_pair_correlation(cfg)["bound_ratio"])
    report("criterion 9a (bound ratio over 20 seeded vectors)",
           worst <= 10.0, time.perf_counter() - t0, 300.0, f"max ratio {worst:.3e}")


def test_criterion_9b_pipeline_error():
    t0 = time.perf_counter()
    r = pipeline_fidelity(n=500, H=50.0, Hp=160.0, Q=300.0)
    report("criterion 9b (reconstruction error at n=500, H=50, Q=300)",
           r["rel_error"] < 0.05, time.perf_counter() - t0, 300.0,
           f"rel error {r['rel_error']:.2e}")


def test_criterion_9c_error_decreases_when_Q_doubles():
    """Implemented exactly as specified: error at Q=600 below error at Q=300.

    Both errors sit three orders of magnitude below the 0.05 tolerance, at
    the arithmetic fluctuation floor of the detector, where a single
    doubling comparison is not monotone; Q=300 happens to be a fluctuation
    minimum for this instance.  The envelope-level monotonicity (Q in
    {100, 200, 400}, 10% tolerance) is verified in test_correlations.py.
    """
    t0 = time.perf_counter()
    e300 = pipeline_fidelity(n=500, H=50.0, Hp=160.0, Q=300.0)["rel_error"]
    e600 = pipeline_fidelity(n=500, H=50.0, Hp=160.0, Q=600.0)["rel_error"]
    report("criterion 9c (pipeline error decreasing at Q: 300 -> 600, literal)",
           e600 <= e300, time.perf_counter() - t0, 300.0,
           f"err(300)={e300:.2e} err(600)={e600:.2e}")
