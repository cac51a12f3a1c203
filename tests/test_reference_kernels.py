"""The walk's kernels against plain references.

evaluate_rows builds each row's monomial values block by block,
mul_linear lifts a coefficient vector by a linear row, and
solve_univariate solves a line leaf in Python floats.  The references
below are the plainest forms of the first two (every block gathered by
fancy indexing into fresh temporaries, and every non-zero normal entry
scaled before it is added) and the slice-wise NumPy loop of the third.
Each kernel must give the same bytes.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from conftest import SMALL_SOLVE_SHAPES
from mvinterp import univariate
from mvinterp.monomials import build_order, count_total
from mvinterp.polynomial import MultiPoly, evaluate, evaluate_rows, mul_linear
from mvinterp.solver import SolveConfig, _build_plan, solve
from mvinterp.univariate import chebyshev_parameters, solve_univariate


def reference_evaluate_rows(q, points):
    """Each degree block of a row from two gathered temporaries, then one dot."""
    order = build_order(q.m, q.n)
    vals = np.empty(q.coeffs.size)
    vals[0] = 1.0
    blocks = [order.block(k) for k in range(1, q.n + 1)]
    out = np.empty(len(points))
    for i, x in enumerate(points):
        for blk in blocks:
            np.multiply(x[order.var[blk]], vals[order.parent[blk]], out=vals[blk])
        out[i] = vals @ q.coeffs
    return out


def reference_mul_linear(qc, row, order):
    """qc times row[0] + <row[1:], x>, every non-zero normal entry scaled."""
    nq = qc.size
    out = np.zeros(len(order))
    out[:nq] += row[0] * qc
    for a, la in enumerate(row[1:].tolist()):
        if la != 0.0:
            out[order.lift(a)[:nq]] += la * qc
    return out


def sample_points(m, rng):
    """Random rows, plus rows of zeros, signed zeros, ones and wide values."""
    return np.vstack(
        [
            rng.uniform(-2.0, 2.0, (6, m)),
            rng.uniform(-1e3, 1e3, (2, m)),
            np.zeros((1, m)),
            np.full((1, m), -0.0),
            np.ones((1, m)),
            -np.ones((1, m)),
        ]
    )


@pytest.mark.parametrize("m,n", itertools.product(range(1, 7), range(0, 7)))
def test_evaluate_rows_is_bytewise_the_reference(m, n):
    rng = np.random.default_rng([31, m, n])
    q = MultiPoly(m, n, rng.uniform(-1.0, 1.0, count_total(m, n)))
    points = sample_points(m, rng)
    expected = reference_evaluate_rows(q, points)
    assert evaluate_rows(q, points).tobytes() == expected.tobytes()
    # rows read from a column-major copy and a strided view give the same bytes
    assert evaluate_rows(q, np.asfortranarray(points)).tobytes() == expected.tobytes()
    wide = np.repeat(points, 2, axis=1)[:, ::2]
    assert evaluate_rows(q, wide).tobytes() == expected.tobytes()


@pytest.mark.parametrize("m,n", [(1, 0), (3, 0), (1, 1), (4, 1), (2, 6)])
def test_evaluate_rows_overflow_and_nan_match_the_reference(m, n):
    rng = np.random.default_rng([37, m, n])
    q = MultiPoly(m, n, rng.uniform(-1.0, 1.0, count_total(m, n)))
    points = np.vstack([np.full((1, m), 1e200), np.full((1, m), np.nan), np.full((1, m), -np.inf)])
    with np.errstate(over="ignore", invalid="ignore"):
        assert evaluate_rows(q, points).tobytes() == reference_evaluate_rows(q, points).tobytes()


def linear_rows(m, rng):
    """Rows [c0, normal] whose normals hold unit, other and zero entries."""
    choices = np.array([1.0, 0.0, -0.0, -1.0, 0.7, 2.5])
    rows = [np.concatenate(([c0], choices[rng.integers(0, choices.size, m)])) for c0 in (0.0, -1.3, 1.0)]
    rows.append(np.concatenate(([0.4], np.eye(m)[m - 1])))  # one unit entry, the default frame's row
    rows.append(np.concatenate(([0.4], np.ones(m))))
    rows.append(np.concatenate(([0.4], np.zeros(m))))
    rows.append(np.concatenate(([0.4], rng.uniform(-1.0, 1.0, m))))
    return rows


@pytest.mark.parametrize("m,n", itertools.product(range(1, 7), range(1, 7)))
def test_mul_linear_is_bytewise_the_reference(m, n):
    rng = np.random.default_rng([41, m, n])
    order = build_order(m, n)
    for size in {count_total(m, k) for k in range(n)}:  # every degree < n
        qc = rng.uniform(-1.0, 1.0, size)
        qc[::5] = -0.0
        for row in linear_rows(m, rng):
            assert mul_linear(qc, row, order).tobytes() == reference_mul_linear(qc, row, order).tobytes()


@pytest.mark.parametrize("m,n", [(1, 3), (3, 4), (5, 2)])
def test_mul_linear_into_zeros_is_bytewise_its_new_array(m, n):
    # adding the product into a given array of zeros changes no bit
    rng = np.random.default_rng([67, m, n])
    order = build_order(m, n)
    qc = rng.uniform(-1.0, 1.0, count_total(m, n - 1))
    qc[::5] = -0.0
    for row in linear_rows(m, rng):
        out = np.zeros(len(order))
        assert mul_linear(qc, row, order, out=out) is out
        assert out.tobytes() == mul_linear(qc, row, order).tobytes()


@pytest.mark.parametrize("m,n", [(3, 4), (4, 3), (2, 6)])
@pytest.mark.parametrize("rotated", [False, True])
def test_mul_linear_matches_the_reference_on_plan_rows(m, n, rotated):
    # the divisor rows a plan lifts by: unit normals in the default frame,
    # general ones in a rotated frame
    frame = np.linalg.qr(np.random.default_rng([43, m]).standard_normal((m, m)))[0] if rotated else None
    plan = _build_plan(m, n, frame, Fraction(2), 1.0, np.linspace(-0.5, 0.25, m))
    assert (1.0 in plan.table[:, 1:]) is not rotated
    rng = np.random.default_rng([47, m, n])
    order = build_order(m, n)
    qc = rng.uniform(-1.0, 1.0, count_total(m, n - 1))
    for row in plan.table:
        assert mul_linear(qc, row, order).tobytes() == reference_mul_linear(qc, row, order).tobytes()


def reference_solve_univariate(t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Newton divided differences in place in c (overwritten), then the
    monomial expansion, each step one slice-wise NumPy expression."""
    k = t.size - 1
    for j in range(1, k + 1):
        c[j:] = (c[j:] - c[j - 1 : -1]) / (t[j:] - t[: -j])
    out = np.zeros(k + 1)
    out[0] = c[k]
    for i in range(k - 1, -1, -1):
        out[1 : k - i + 1] = out[: k - i]
        out[0] = 0.0
        out[: k - i] -= t[i] * out[1 : k - i + 1]
        out[0] += c[i]
    return out


def line_values(count, rng):
    """Values of mixed sign and wide magnitude, with zeros and signed zeros."""
    values = rng.uniform(-1.0, 1.0, count) * 10.0 ** rng.integers(-150, 150, count)
    values[::4], values[1::5] = -0.0, 0.0
    return values


@pytest.mark.parametrize("k", range(1, 41))
def test_solve_univariate_is_bytewise_the_reference(k):
    rng = np.random.default_rng([53, k])
    magnitudes = 10.0 ** rng.uniform(-3.0, 3.0, k + 1)
    spreads = [
        chebyshev_parameters(k + 1),
        chebyshev_parameters(k + 1, kappa=0.5),
        np.sort(magnitudes * rng.choice([-1.0, 1.0], k + 1)),
        np.concatenate(([0.0], np.sort(magnitudes)[1:])),  # 0.0 - 0.0 * c + -0.0 is 0.0, not -0.0
    ]
    for t in spreads:
        for values in (line_values(k + 1, rng), rng.uniform(-1.0, 1.0, k + 1)):
            with np.errstate(all="ignore"):  # wide values overflow in both
                expected = reference_solve_univariate(t, values.copy())
            got = solve_univariate(t, values)
            assert got.tobytes() == expected.tobytes()


def solve_both_ways(monkeypatch, f, m, n, config):
    """The coefficient bytes of solve with the line solve as it is, and with
    the reference line solve in its place."""
    got = solve(f, m, n, config)[0].coeffs.tobytes()
    with monkeypatch.context() as patched:
        patched.setattr(univariate, "solve_univariate", reference_solve_univariate)
        expected = solve(f, m, n, config)[0].coeffs.tobytes()
    return got, expected


@pytest.mark.parametrize("m,n", SMALL_SOLVE_SHAPES)
@pytest.mark.parametrize("shifted", [False, True])
def test_walk_with_the_reference_line_solve_gives_the_same_bytes(monkeypatch, m, n, shifted):
    rng = np.random.default_rng([59, m, n])
    truth = MultiPoly(m, n, rng.uniform(-1.0, 1.0, count_total(m, n)))
    config = SolveConfig(kappa=0.5, mu=rng.uniform(-1.0, 1.0, m)) if shifted else SolveConfig()
    got, expected = solve_both_ways(monkeypatch, lambda p: evaluate(truth, p), m, n, config)
    assert got == expected


@pytest.mark.parametrize("m,n", [(3, 12), (8, 6)])
def test_walk_from_values_with_the_reference_line_solve_gives_the_same_bytes(monkeypatch, m, n):
    values = np.random.default_rng([61, m, n]).uniform(-1.0, 1.0, count_total(m, n))
    got, expected = solve_both_ways(monkeypatch, values, m, n, SolveConfig(lam=Fraction(11, 10)))
    assert got == expected
