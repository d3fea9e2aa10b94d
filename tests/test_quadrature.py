import math

import numpy as np
import pytest

from cuspcorr.errors import ContractError, NumericsError
from cuspcorr.quadrature import GL_ORDER, _gl_nodes, gl_nodes_weights, osc_quad, osc_quad_rows, panel_rule


@pytest.mark.parametrize("a, b, panels", [(1.0, 2.0, 4), (0.0, 0.5 * math.pi, 1),
                                          (-3.0, 7.25, 13), (1e-3, 1e3, 64)])
def test_panel_rule_equals_per_panel_rules(a, b, panels):
    x, w = panel_rule(a, b, panels)
    edges = np.linspace(a, b, panels + 1)
    rules = [gl_nodes_weights(edges[i], edges[i + 1], GL_ORDER) for i in range(panels)]
    assert np.array_equal(x, np.concatenate([r[0] for r in rules]))
    assert np.array_equal(w, np.concatenate([r[1] for r in rules]))


def test_panel_rule_exact_for_degree_31():
    rng = np.random.default_rng(31)
    p = np.polynomial.Polynomial(rng.uniform(0.5, 1.5, 32))
    a, b = -0.5, 1.75
    antider = p.integ()
    x, w = panel_rule(a, b, 3)
    exact = antider(b) - antider(a)
    assert abs(p(x) @ w - exact) <= 1e-13 * abs(exact)


def test_cached_reference_rule_is_read_only():
    x0, w0 = _gl_nodes(GL_ORDER)
    with pytest.raises(ValueError):
        x0[0] = 0.0
    with pytest.raises(ValueError):
        w0[0] = 0.0



@pytest.mark.parametrize("panels", [1, 3, 16])
def test_panel_rule_per_row_endpoints_equal_scalar_rules(panels):
    a = np.array([1.0, 0.0, -3.0, 1e-3, 2.5])
    b = np.array([2.0, 0.5 * math.pi, 7.25, 1e3, 2.5])  # the last row has zero width
    x, w = panel_rule(a, b, panels)
    assert x.shape == w.shape == (a.size, panels * GL_ORDER)
    for i in range(a.size):
        xi, wi = panel_rule(a[i], b[i], panels)
        assert np.array_equal(x[i], xi)
        assert np.array_equal(w[i], wi)


# row i integrates exp((i freq - 1/2) x) over [a_i, b_i]
_FREQ = np.array([0.0, 3.0, 40.0, 7.5, 120.0, 1.0])
_A = np.array([0.0, -1.0, 0.5, 2.0, 0.0, 3.0])
_B = np.array([1.0, 4.0, 2.5, 9.0, 3.0, 3.0])  # the last row is empty
_CYCLES = _FREQ * (_B - _A) / (2.0 * math.pi)


def _row_integrand(x, rows):
    return np.exp((1j * _FREQ[rows, None] - 0.5) * x)


def test_osc_quad_rows_rows_equal_one_row_calls():
    batched = osc_quad_rows(_row_integrand, _A, _B, _CYCLES)
    assert batched[-1] == 0
    for i in range(_A.size):
        alone = osc_quad_rows(lambda x, rows: _row_integrand(x, rows + i),
                              _A[i], _B[i], _CYCLES[i])
        assert alone.shape == (1,)
        assert batched[i] == alone[0]  # bit for bit
        scalar = osc_quad(lambda x: _row_integrand(x[None], np.array([i]))[0],
                          _A[i], _B[i], _CYCLES[i])
        assert batched[i] == scalar
    c = 1j * _FREQ - 0.5
    exact = (np.exp(c * _B) - np.exp(c * _A)) / c
    assert np.abs(batched - exact).max() < 1e-10


def test_osc_quad_rows_failures():
    def integrand(x, rows):
        # row 1 has an integrable singularity inside, which panel doubling
        # cannot resolve to 1e-10 within its doublings
        return np.where(rows[:, None] == 1, 1.0 / np.sqrt(np.abs(x - 0.3183)), np.cos(x))

    with pytest.raises(NumericsError, match="did not reach tol"):
        osc_quad_rows(integrand, [0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
    for a, b, cycles in ((0.0, np.nan, 0.0), (np.nan, 1.0, 0.0), (0.0, 1.0, np.inf)):
        with pytest.raises(ContractError):
            osc_quad_rows(integrand, [0.0, a], [1.0, b], [0.0, cycles])
