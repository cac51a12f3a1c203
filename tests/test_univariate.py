"""Line solver: Chebyshev placement, divided differences, lift to m variables."""

import numpy as np
import pytest

from mvinterp.exceptions import DegenerateInputError
from mvinterp.monomials import count_total
from mvinterp.nodes import leaf_nodes
from mvinterp.polynomial import MultiPoly, evaluate
from mvinterp.univariate import chebyshev_parameters, solve_on_line, solve_univariate


def chebyshev_nodes(count, direction, base, kappa=1.0):
    """The count nodes of a line leaf: base + t * direction at Chebyshev t."""
    direction, base = np.asarray(direction, float), np.asarray(base, float)
    return leaf_nodes((1, count - 1), base[None], direction[None], kappa)[0]


def test_chebyshev_node_examples():
    two = chebyshev_nodes(2, [1.0], [0.0])
    np.testing.assert_allclose(two[:, 0], [np.sqrt(2) / 2, -np.sqrt(2) / 2])

    one = chebyshev_nodes(1, [1.0, 0.0], [3.0, -1.0])
    np.testing.assert_allclose(one, [[3.0, -1.0]], atol=1e-16)

    three = chebyshev_nodes(3, [1.0], [0.0], kappa=2.0)
    np.testing.assert_allclose(three[:, 0], [np.sqrt(3), 0.0, -np.sqrt(3)], atol=1e-15)


def test_chebyshev_nodes_lie_on_line(rng):
    xi = rng.normal(size=3)
    xi /= np.linalg.norm(xi)
    b = rng.uniform(-2, 2, size=3)
    pts = chebyshev_nodes(7, xi, b)
    assert pts.shape == (7, 3)
    # distance of each point from the line must vanish
    rel = pts - b
    proj = np.outer(rel @ xi, xi)
    np.testing.assert_allclose(rel, proj, atol=1e-14)
    t = rel @ xi
    assert np.unique(np.round(t, 12)).size == 7


def test_solve_univariate_examples():
    np.testing.assert_allclose(
        solve_univariate(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0])), [0.0, 0.0, 1.0], atol=1e-15
    )
    np.testing.assert_allclose(
        solve_univariate(np.array([0.0, 1.0]), np.array([4.5, 4.5])), [4.5, 0.0], atol=1e-15
    )
    # derived oracle: brute-force Vandermonde solve for nodes 1,2,3 / values 1,4,9
    t = np.array([1.0, 2.0, 3.0])
    vals = np.array([1.0, 4.0, 9.0])
    oracle = np.linalg.solve(np.vander(t, increasing=True), vals)
    np.testing.assert_allclose(oracle, [0.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(solve_univariate(t, vals), oracle, atol=1e-12)


def test_equal_line_parameters_are_refused_by_name():
    # an equal pair in the divided differences of order 1, then of order 2
    for t, pair in (([0.5, 0.5, 1.0], "0 and 1"), ([0.0, 1.0, 0.0], "0 and 2")):
        with pytest.raises(DegenerateInputError, match=f"line parameters {pair} are equal"):
            solve_univariate(t, [1, 2, 3])
        with pytest.raises(DegenerateInputError, match=f"line parameters {pair} are equal"):
            solve_on_line(np.array(t), np.array([1.0, 2.0, 3.0]), 0.0, np.array([1.0, 0.0]))
    with pytest.raises(DegenerateInputError, match="line parameters 1 and 2 are equal: -0.0"):
        solve_univariate(np.array([1.0, 0.0, -0.0]), np.ones(3))


def test_line_solves_leave_their_inputs_unchanged():
    t, values = chebyshev_parameters(5), np.arange(5.0)
    solve_univariate(t, values)
    solve_on_line(t, values, 0.25, np.array([0.6, 0.8]))
    assert np.array_equal(t, chebyshev_parameters(5)) and np.array_equal(values, np.arange(5.0))


def test_roundtrip_coefficient_recovery(rng):
    # random coefficients, Chebyshev nodes, recovery to 1e-8 up to degree 20
    for n in [1, 3, 7, 12, 20]:
        for _ in range(5):
            c = rng.uniform(-1, 1, size=n + 1)
            t = chebyshev_parameters(n + 1)
            vals = np.polynomial.polynomial.polyval(t, c)
            got = solve_univariate(t, vals)
            assert np.max(np.abs(got - c)) <= 1e-8


def test_uniqueness_against_dense_solve(rng):
    # same nodes, same values: divided differences vs brute LU
    for n in [2, 5, 9, 15]:
        t = np.sort(rng.uniform(-1, 1, size=n + 1))
        while np.min(np.diff(t)) < 1e-3:
            t = np.sort(rng.uniform(-1, 1, size=n + 1))
        vals = rng.uniform(-1, 1, size=n + 1)
        dense = np.linalg.solve(np.vander(t, increasing=True), vals)
        np.testing.assert_allclose(solve_univariate(t, vals), dense, atol=1e-9)


def on_line(f, degree, direction, base):
    """(nodes, interpolant) of f at degree + 1 Chebyshev nodes on the line."""
    direction, base = np.asarray(direction, float), np.asarray(base, float)
    nodes = chebyshev_nodes(degree + 1, direction, base)
    values = np.array([f(p) for p in nodes])
    coeffs = solve_on_line((nodes - base) @ direction, values, -float(direction @ base), direction)
    return nodes, MultiPoly(base.size, degree, coeffs)


def test_solve_on_line_examples():
    # f = x1^2 on the x1 axis in two variables
    nodes, poly = on_line(lambda p: p[0] ** 2, 2, [1.0, 0.0], [0.0, 0.0])
    assert nodes.shape == (3, 2)
    np.testing.assert_allclose(poly.coeffs, [0, 0, 0, 1, 0, 0], atol=1e-14)

    _, const = on_line(lambda p: 5.0, 0, [0.0, 1.0], [2.0, 2.0])
    np.testing.assert_allclose(const.coeffs, [5.0])

    diag = np.array([1 / np.sqrt(2), 1 / np.sqrt(2)])
    nodes3, poly3 = on_line(lambda p: p[0] + p[1], 1, diag, [0.0, 0.0])
    for s in np.linspace(-2, 2, 5):
        p = s * diag
        assert evaluate(poly3, p) == pytest.approx(p[0] + p[1], abs=1e-12)


def test_solve_on_line_interpolates_at_nodes(rng):
    xi = rng.normal(size=4)
    xi /= np.linalg.norm(xi)
    b = rng.uniform(-1, 1, size=4)
    f = lambda p: np.sin(p[0]) + p[1] * p[2] - 0.3 * p[3] ** 2
    nodes, poly = on_line(f, 5, xi, b)
    fmax = max(abs(f(p)) for p in nodes)
    for p in nodes:
        assert abs(evaluate(poly, p) - f(p)) <= 1e-10 * (1 + fmax)


def test_solve_on_line_node_count_is_degree_plus_one():
    direction, base = np.array([0.6, 0.8]), np.array([0.5, -1.0])
    for n in range(0, 6):
        t = (chebyshev_nodes(n + 1, direction, base) - base) @ direction
        coeffs = solve_on_line(t, np.ones(n + 1), -float(direction @ base), direction)
        assert coeffs.shape == (count_total(2, n),)
        np.testing.assert_allclose(coeffs, np.eye(count_total(2, n))[0], atol=1e-12)
