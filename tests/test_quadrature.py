import math

import numpy as np
import pytest

from cuspcorr.quadrature import GL_ORDER, _gl_nodes, gl_nodes_weights, panel_rule


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

