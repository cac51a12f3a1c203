"""Degree-1 solver on flats: node layout, explicit difference solve, cost."""

import numpy as np
import pytest

from mvinterp.linear import solve_linear
from mvinterp.nodes import leaf_nodes
from mvinterp.polynomial import MultiPoly, evaluate
from mvinterp.solver import _step_multiply_adds


def flat_nodes(axes, base):
    """The nodes of a flat: base, then base + axes[a] for each active axis."""
    return np.vstack([base, base + axes])


def solve_on(f, axes, base):
    """The degree-1 interpolant of f at the flat's nodes, as a MultiPoly."""
    axes, base = np.asarray(axes, float), np.asarray(base, float)
    values = np.array([f(p) for p in flat_nodes(axes, base)])
    return MultiPoly(base.size, 1, solve_linear(values, axes, base))


def test_linear_generic_nodes_examples():
    zero = np.zeros((1, 2))
    np.testing.assert_allclose(leaf_nodes((2, 1), zero, np.eye(2), 1.0)[0], [[0, 0], [1, 0], [0, 1]])
    np.testing.assert_allclose(
        leaf_nodes((2, 1), np.zeros((1, 3)), np.eye(3), 1.0)[0], [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    )
    s = np.sqrt(2) / 2
    rotated = np.array([[s, s], [-s, s]])
    np.testing.assert_allclose(leaf_nodes((2, 1), zero, rotated, 1.0)[0], [[0, 0], [s, s], [-s, s]])


def test_solve_linear_example():
    table = {(0.0, 0.0): 1.0, (1.0, 0.0): 3.0, (0.0, 1.0): 0.0}
    poly = solve_on(lambda p: table[tuple(p)], np.eye(2), np.zeros(2))
    np.testing.assert_allclose(poly.coeffs, [1.0, 2.0, -1.0])


def test_solve_linear_constant():
    coeffs = solve_linear(np.full(5, -7.5), np.eye(4), np.zeros(4))
    np.testing.assert_allclose(coeffs, [-7.5, 0, 0, 0, 0])


def test_solve_linear_on_sub_line():
    # f = x1 + x2 restricted to the diagonal line through the origin
    s = np.sqrt(2) / 2
    poly = solve_on(lambda p: p[0] + p[1], [[s, s]], [0.0, 0.0])
    assert evaluate(poly, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-14)
    assert evaluate(poly, (s, s)) == pytest.approx(np.sqrt(2))


def test_standard_frame_coefficients_are_plain_differences(rng):
    # base 0 and the identity frame: coefficients equal value differences exactly
    m = 6
    values = rng.uniform(-5, 5, size=m + 1)
    coeffs = solve_linear(values, np.eye(m), np.zeros(m))
    assert coeffs[0] == values[0]
    np.testing.assert_array_equal(coeffs[1:], values[1:] - values[0])


def test_interpolation_with_offset_base(rng):
    for m in [2, 4, 7]:
        base = rng.uniform(-3, 3, size=m)
        f = lambda p: 0.5 - 2.0 * p[0] + p[m - 1]
        nodes = flat_nodes(np.eye(m), base)
        poly = solve_on(f, np.eye(m), base)
        fmax = max(abs(f(p)) for p in nodes)
        for p in nodes:
            assert abs(evaluate(poly, p) - f(p)) <= 1e-12 * (1 + fmax)


def test_node_matrix_nonsingular_up_to_m30():
    # degree-1 Vandermonde of a degree-1 leaf's nodes: [1 | p] must be regular
    for m in range(1, 31):
        nodes = leaf_nodes((m, 1), np.zeros((1, m)), np.eye(m), 1.0)[0]
        V = np.hstack([np.ones((m + 1, 1)), nodes])
        sign, logdet = np.linalg.slogdet(V)
        assert sign != 0


def test_cost_scales_linearly():
    for m, k in [(3, 3), (10, 10), (20, 5), (30, 30)]:
        # the one flat leaf of k + 1 nodes in m-space
        no_divisors = np.empty((0, m + 1)), np.array([0, 0]), np.empty(0, np.intp)
        steps = _step_multiply_adds(m, 1, np.array([k + 1, 0]), np.array([False]), *no_divisors, np.array([0]))
        assert steps["solve"] <= 4 * (m + 2) * (k + 1)
