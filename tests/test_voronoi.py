import numpy as np
import pytest

from cuspcorr.coeffs import Eigenform, make_eigenform
from cuspcorr.errors import ContractError, InsufficientCoefficients
from cuspcorr.voronoi import VoronoiInstance, voronoi_check, voronoi_instance, voronoi_lhs, voronoi_rhs
from cuspcorr.windows import SmoothWindow, bump_window
from oracles import voronoi_rhs_sequential


def zero_window():
    return SmoothWindow(lambda x: np.zeros_like(np.asarray(x, dtype=float)), (1.0, 2.0))


def test_contracts():
    with pytest.raises(ContractError):
        voronoi_instance(12, 2, 4, 50.0)  # gcd(b,c) != 1
    with pytest.raises(ContractError):
        voronoi_instance(12, 1, 0, 50.0)
    with pytest.raises(ContractError):
        voronoi_instance(12, 1, 2, -1.0)


def test_zero_window_both_sides():
    inst = voronoi_instance(12, 1, 2, 50.0, V=zero_window())
    assert voronoi_lhs(inst) == 0
    val, diag = voronoi_rhs(inst)
    assert val == 0


def test_lhs_periodicity_in_b():
    i1 = voronoi_instance(12, 1, 3, 60.0)
    i2 = voronoi_instance(12, 4, 3, 60.0)
    assert voronoi_lhs(i1) == pytest.approx(voronoi_lhs(i2), abs=1e-14)


def test_lhs_against_reversed_order_sum(form12):
    inst = VoronoiInstance(form=form12, b=1, c=1, N=50.0)
    val = voronoi_lhs(inst)
    W = inst.V
    acc = 0.0
    for n in range(100, 49, -1):  # reversed order, Kahan-free but fsum
        acc += float(form12.lam[n] * W.value(n / 50.0))
    assert val.real == pytest.approx(acc, abs=1e-12)
    assert val.imag == 0


def test_conjugation_symmetry():
    a = voronoi_check(voronoi_instance(12, 1, 5, 80.0))
    b = voronoi_check(voronoi_instance(12, -1, 5, 80.0))
    assert a["lhs"] == pytest.approx(np.conj(b["lhs"]), abs=1e-12)
    assert a["rhs"] == pytest.approx(np.conj(b["rhs"]), abs=1e-9)



def test_custom_form_insufficient_raises():
    small = make_eigenform(12, 32)
    custom = Eigenform(weight=12, a=list(small.a[:33]), lam=small.lam[:33].copy())
    inst = VoronoiInstance(form=custom, b=1, c=3, N=12.0)
    with pytest.raises(InsufficientCoefficients):
        voronoi_rhs(inst)


def test_dual_term_small_argument_scaling():
    # below the oscillatory regime the dual integral scales like A^(kappa-1)
    from cuspcorr.bessel import BesselKernel
    from cuspcorr.voronoi import _dual_integral
    kern = BesselKernel.of(11)
    W = bump_window()
    i1, i2 = _dual_integral(kern, W, np.array([0.02, 0.04]), 1e-12)
    ratio = abs(i2) / abs(i1)
    assert ratio == pytest.approx(2 ** 11, rel=0.02)


@pytest.mark.parametrize("weight", [12, 16])
@pytest.mark.parametrize("b,c", [(1, 1), (1, 3), (2, 5)])
def test_batched_rhs_matches_sequential_oracle(weight, b, c):
    inst = voronoi_instance(weight, b, c, 200.0)
    val, diag = voronoi_rhs(inst)
    ref, ref_diag = voronoi_rhs_sequential(inst)
    for key in ("n_stop", "n_terms", "tail_margin"):
        assert diag[key] == ref_diag[key], key
    assert val == ref


@pytest.mark.parametrize("weight", [12, 16])
def test_batched_rhs_near_sequential_oracle_small_N(weight):
    # at N = 50 many J values fall in the integral zone; its trapezoid rule
    # is sized per grid row, so batching the rows leaves every bit in place
    inst = voronoi_instance(weight, 2, 5, 50.0)
    val, diag = voronoi_rhs(inst)
    ref, ref_diag = voronoi_rhs_sequential(inst)
    assert (diag["n_stop"], diag["n_terms"]) == (ref_diag["n_stop"], ref_diag["n_terms"])
    assert val == ref


@pytest.mark.parametrize("N", [200.0, 800.0])
def test_custom_form_with_exactly_the_needed_coefficients(N):
    # the scan needs lambda(n) up to 2 n_stop and not one more.  At N = 200
    # the last scan block ends before 2 n_stop = 238; at N = 800 the block
    # n = 33..96 runs past 2 n_stop = 74, beyond the end of the form.
    n_stop = voronoi_rhs_sequential(voronoi_instance(12, 1, 3, N))[1]["n_stop"]
    full = make_eigenform(12, 2 * n_stop)

    def custom_instance(length):
        form = Eigenform(weight=12, a=list(full.a[:length + 1]), lam=full.lam[:length + 1].copy())
        return VoronoiInstance(form=form, b=1, c=3, N=N)

    exact = custom_instance(2 * n_stop)
    assert voronoi_rhs(exact) == voronoi_rhs_sequential(exact)
    short = custom_instance(2 * n_stop - 1)
    for rhs in (voronoi_rhs_sequential, voronoi_rhs):
        with pytest.raises(InsufficientCoefficients):
            rhs(short)
