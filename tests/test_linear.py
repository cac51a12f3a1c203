"""Degree-1 solver on flats: node layout, explicit difference solve, cost."""

import numpy as np
import pytest

from mvinterp.instrument import Tally
from mvinterp.linear import FlatSpec, linear_generic_nodes, solve_linear
from mvinterp.polynomial import evaluate


def standard_flat(m, active=None, base=None):
    return FlatSpec(
        frame=np.eye(m),
        active=tuple(range(m)) if active is None else active,
        base=np.zeros(m) if base is None else np.asarray(base, float),
    )


def test_linear_generic_nodes_examples():
    np.testing.assert_allclose(
        linear_generic_nodes(standard_flat(2)), [[0, 0], [1, 0], [0, 1]]
    )
    np.testing.assert_allclose(
        linear_generic_nodes(standard_flat(3, active=(1,))),
        [[0, 0, 0], [0, 1, 0]],
    )
    s = np.sqrt(2) / 2
    rotated = FlatSpec(frame=[[s, s], [-s, s]], active=(0, 1), base=[0.0, 0.0])
    np.testing.assert_allclose(
        linear_generic_nodes(rotated), [[0, 0], [s, s], [-s, s]]
    )


def test_flatspec_rejects_bad_frames():
    with pytest.raises(ValueError):
        FlatSpec(frame=[[1.0, 0.0], [1.0, 0.0]], active=(0, 1), base=[0.0, 0.0])
    with pytest.raises(ValueError):
        FlatSpec(frame=np.eye(2), active=(), base=[0.0, 0.0])
    with pytest.raises(ValueError):
        FlatSpec(frame=np.eye(2), active=(0, 0), base=[0.0, 0.0])


def values_at(f, flat):
    """f at the flat's nodes, in node order."""
    return np.array([f(p) for p in linear_generic_nodes(flat)])


def test_solve_linear_example():
    table = {(0.0, 0.0): 1.0, (1.0, 0.0): 3.0, (0.0, 1.0): 0.0}
    flat = standard_flat(2)
    poly = solve_linear(values_at(lambda p: table[tuple(p)], flat), flat)
    np.testing.assert_allclose(poly.coeffs, [1.0, 2.0, -1.0])


def test_solve_linear_constant():
    poly = solve_linear(np.full(5, -7.5), standard_flat(4))
    np.testing.assert_allclose(poly.coeffs, [-7.5, 0, 0, 0, 0])


def test_solve_linear_on_sub_line():
    # f = x1 + x2 restricted to the diagonal line through the origin
    s = np.sqrt(2) / 2
    flat = FlatSpec(frame=[[s, s], [-s, s]], active=(0,), base=[0.0, 0.0])
    poly = solve_linear(values_at(lambda p: p[0] + p[1], flat), flat)
    assert evaluate(poly, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-14)
    assert evaluate(poly, (s, s)) == pytest.approx(np.sqrt(2))
    assert poly.effective_degree() <= 1


def test_standard_frame_coefficients_are_plain_differences(rng):
    # base 0 and the identity frame: coefficients equal value differences exactly
    m = 6
    values = rng.uniform(-5, 5, size=m + 1)
    poly = solve_linear(values, standard_flat(m))
    assert poly.coeffs[0] == values[0]
    np.testing.assert_array_equal(poly.coeffs[1:], values[1:] - values[0])


def test_interpolation_with_offset_base(rng):
    for m in [2, 4, 7]:
        base = rng.uniform(-3, 3, size=m)
        flat = standard_flat(m, base=base)
        f = lambda p: 0.5 - 2.0 * p[0] + p[m - 1]
        nodes = linear_generic_nodes(flat)
        poly = solve_linear(values_at(f, flat), flat)
        fmax = max(abs(f(p)) for p in nodes)
        for p in nodes:
            assert abs(evaluate(poly, p) - f(p)) <= 1e-12 * (1 + fmax)


def test_node_matrix_nonsingular_up_to_m30():
    # degree-1 Vandermonde of the returned nodes: [1 | p] must be regular
    for m in range(1, 31):
        nodes = linear_generic_nodes(standard_flat(m))
        V = np.hstack([np.ones((m + 1, 1)), nodes])
        sign, logdet = np.linalg.slogdet(V)
        assert sign != 0


def test_cost_scales_linearly():
    for m, k in [(3, 3), (10, 10), (20, 5), (30, 30)]:
        tally = Tally()
        flat = standard_flat(m, active=tuple(range(k)))
        solve_linear(np.ones(k + 1), flat, tally=tally)
        assert tally.multiply_adds <= 4 * (m + 2) * (k + 1)


def test_solve_linear_rejects_wrong_value_shape(rng):
    flat = standard_flat(4, active=(0, 2), base=rng.uniform(-1, 1, size=4))
    for bad in [np.zeros(4), np.zeros(2), np.zeros((3, 1))]:
        with pytest.raises(ValueError, match="expected 3 node values"):
            solve_linear(bad, flat)
