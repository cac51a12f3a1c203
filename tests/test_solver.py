"""Recursive solver tests: corrected evaluation, oracles, traversal, storage.

The hand-worked single-split chain below was computed on paper first:
with f(x, y) = 2x^2 - xy + 3y - 1 and the default (2, 2) geometry, the
dimension-reduction branch solves the line {y = 2} and yields
Q_w = 2x^2 - 2x + 5, after which f - Q_w factors exactly as
(y - 2)(3 - x), so the corrected function on the sibling branch is 3 - x.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from conftest import SMALL_SOLVE_SHAPES, brute_force_eval, brute_force_indices, solve_on_dense_line, tree_splits
from mvinterp import monomials, polynomial, solver
from mvinterp import nodes as nodes_module
from mvinterp.exceptions import GeometryConfigError
from mvinterp.linear import solve_linear
from mvinterp.monomials import build_order, count_total
from mvinterp.nodes import GEOMETRY_RTOL, assemble_generic, leaf_slices
from mvinterp.polynomial import MultiPoly, evaluate, evaluate_rows, linear_terms, restricted_kernel
from mvinterp.solver import (
    SolveConfig,
    corrected_value,
    solve,
)
from mvinterp.tree import eps_label, vertex_base
from mvinterp.univariate import solve_on_line, solve_univariate
from mvinterp.vandermonde import build_vandermonde, lu_solve


# the identity frame's line direction, x_0, in the form a plan keeps it
X_0 = ((0, 1.0),)


def random_poly(m, n, seed_key):
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    return MultiPoly(m, n, rng.uniform(-1.0, 1.0, count_total(m, n)))


def fit_exponent(sizes, counts):
    """Least-squares slope of log(counts) against log(sizes)."""
    lx = np.log(np.asarray(sizes, float))
    ly = np.log(np.asarray(counts, float))
    design = np.vstack([np.ones_like(lx), lx]).T
    (b0, b1), *_ = np.linalg.lstsq(design, ly, rcond=None)
    pred = design @ np.array([b0, b1])
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    return float(b1), 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------- corrected_value


def test_corrected_value_root_passthrough():
    """With zero correction and no divisors the corrected values are f itself."""
    f = lambda p: 1.5 * p[0] - p[1] ** 2 + 0.25
    points = np.array([[0.0, 0.0], [1.0, -2.0], [0.3, 0.7]])
    values = np.array([f(p) for p in points])
    got = corrected_value(values, MultiPoly.zero(2, 2), points, np.ones(3), [])
    assert np.array_equal(got, values)


def line_solution(f, points, direction, base):
    """The interpolant of f at points on the line base + t * direction."""
    t = (points - base) @ direction
    values = np.array([f(p) for p in points])
    coeffs = solve_on_dense_line(t, values, -float(direction @ base), direction)
    return MultiPoly(points.shape[1], len(points) - 1, coeffs)


def test_corrected_value_vanishing_numerator_after_split():
    # f depends only on x, so the line solution on {y = 2} already explains
    # it everywhere and the sibling branch sees a zero corrected function
    f = lambda p: p[0] ** 2 + 3 * p[0] + 1
    nodes, tree, hyperplanes = assemble_generic(2, 2)
    blocks = leaf_slices(nodes)
    qw = line_solution(f, nodes.points[blocks["1"]], np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    pts = nodes.points[blocks["0"]]
    values = [f(p) for p in pts]
    spec = hyperplanes[(1,)]
    got = corrected_value(values, qw, pts, pts @ spec.normal - spec.offset, ["1"])
    for value, p in zip(got, pts):
        assert abs(value) <= 1e-12 * (1 + abs(f(p)))


def test_corrected_value_single_split_hand_chain():
    """(2, 2) chain against the hand-computed values in the module docstring."""
    f = lambda p: 2 * p[0] ** 2 - p[0] * p[1] + 3 * p[1] - 1
    nodes, tree, hyperplanes = assemble_generic(2, 2)
    blocks = leaf_slices(nodes)
    qw = line_solution(f, nodes.points[blocks["1"]], np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    assert np.allclose(qw.coeffs, [5.0, -2.0, 0.0, 2.0, 0.0, 0.0], atol=1e-12)

    pts = nodes.points[blocks["0"]]
    values = [f(p) for p in pts]
    spec = hyperplanes[(1,)]
    got = corrected_value(values, qw, pts, pts @ spec.normal - spec.offset, ["1"])
    assert np.allclose(got, [3.0, 2.0, 3.0], atol=1e-12)

    # the full solve reassembles f exactly: Q_w + (y - 2)(3 - x)
    q, _, _ = solve(f, 2, 2)
    assert np.allclose(q.coeffs, [-1.0, 0.0, 3.0, 2.0, -1.0, 0.0], atol=1e-12)


def test_corrected_value_division_guard():
    # the divisor y - 2 vanishes at the node
    with pytest.raises(GeometryConfigError) as err:
        corrected_value([1.0], MultiPoly.zero(2, 2), np.array([[5.0, 2.0]]), np.zeros(1), ["10"])
    assert "10" in str(err.value)
    assert "lambda/kappa" in str(err.value)


def test_corrected_value_overflow_is_a_value_error():
    # f and the correction are finite, but their difference is not
    correction = MultiPoly(2, 0, [-1e308])
    with pytest.raises(
        ValueError, match=r"overflowed floating point at node \[0\. 2\.\]"
    ):
        corrected_value([1e308], correction, np.array([[0.0, 2.0]]), np.ones(1), [])


def test_corrected_value_counts_ops():
    # a one-node leaf of (2, 2) that divides by y - 2, its correction read
    # by row_kernel in both variables, in x alone, and not at all
    leaf = np.array([1, 0]), np.array([True]), np.array([[-2.0, 0.0, 1.0]]), np.array([0, 1]), np.array([0])
    steps = [solver._step_multiply_adds(2, 2, *leaf, np.array([p]), np.array([0]), X_0)["correct"] for p in (2, 1, 0)]
    # 2 * N(p,2) for the correction evaluation, (m + 1) per divisor, 1 division
    assert steps == [2 * 6 + 3 * 1 + 1, 2 * 3 + 3 * 1 + 1, 3 * 1 + 1]
    # restricted to its line (d = 1): 2 N(1, 2) for the suffix row and its
    # dot, 1 N(2, 1) for the products per power, and n = 2 for Horner's rule
    restricted = solver._step_multiply_adds(2, 2, *leaf, np.array([0]), np.array([1]), X_0)["correct"]
    assert restricted == 2 * 3 + 1 * 3 + 2 + 3 * 1 + 1


@pytest.mark.parametrize("rotated", [False, True])
def test_embedding_is_charged_what_its_lifts_do(rotated, monkeypatch):
    """A line leaf's solve charges its embedding what mul_linear, counting as
    a divisor lift is counted, does: one multiply-add per coefficient for the
    constant and per pair of the direction, and one add per constant of
    Horner's rule, for every degree k = 0..6."""
    m = 4
    frame = np.linalg.qr(np.random.default_rng([79, m]).standard_normal((m, m)))[0] if rotated else np.eye(m)
    direction = linear_terms(frame[0])
    assert len(direction) == (m if rotated else 1)
    counted, lift = [], polynomial.mul_linear

    def counting(qc, row, lifts, out=None):
        counted.append((1 + len(row[1])) * qc.size)
        return lift(qc, row, lifts, out)

    monkeypatch.setattr(polynomial, "mul_linear", counting)
    lifts = build_order(m, 6).lifts()
    no_divisors = np.empty((0, m + 1)), np.array([0, 0]), np.empty(0, np.intp)
    for k in range(7):
        counted.clear()
        coeffs = solve_on_line(np.linspace(-1.0, 1.0, k + 1), np.ones(k + 1), 0.5, direction, lifts)
        assert coeffs.size == count_total(m, k) and len(counted) == k
        steps = solver._step_multiply_adds(
            m, k, np.array([k + 1, 0]), np.array([True]), *no_divisors, np.zeros(1, int), np.zeros(1, int), direction
        )
        divided = 3 * k * (k + 1) // 2 + k * (k + 1)  # the differences and their monomial expansion
        assert steps["solve"] - divided == sum(counted) + k


def test_corrected_value_block_matches_pointwise_rule(rng):
    """A block call equals (f - correction(p)) / prod(divisor(p)) node by node."""
    correction = MultiPoly(3, 2, rng.uniform(-1.0, 1.0, 10))
    rows = np.array([[-2.0, 0.0, 0.0, 1.0], [0.5, 0.6, 0.0, -0.8]])  # divisor rows [c0, normal]
    points = rng.uniform(-1.0, 1.0, (4, 3))
    values = rng.uniform(-1.0, 1.0, 4)
    product = solver._divisor_product(rows, points)
    got = corrected_value(values, correction, points, product, ["1", "01"])
    for value, p, corrected in zip(values, points, got):
        denominator = 1.0
        for row in rows:
            denominator *= row[0] + row[1:] @ p
        expected = (value - evaluate(correction, p)) / denominator
        assert corrected == pytest.approx(expected, rel=1e-14)
    leaf = np.array([4, 0]), np.array([False]), rows, np.array([0, 2]), np.array([0, 1])
    steps = solver._step_multiply_adds(3, 2, *leaf, np.array([3]), np.array([0]), X_0)
    assert steps["correct"] == 4 * (2 * 10 + 4 * 2 + 1)
    # stacked on a leading axis, each pair has the bits of its own call
    stacked = solver._divisor_product(np.stack([rows, rows[::-1]]), np.stack([points, points[::-1]]))
    assert stacked.tobytes() == np.stack([product, solver._divisor_product(rows[::-1], points[::-1])]).tobytes()


@pytest.mark.parametrize("m,n,p", [(3, 3, 2), (6, 3, 4), (4, 8, 1), (15, 4, 9)])
def test_compact_correction_matches_the_full_kernel(m, n, p, rng):
    """A correction in the first p variables, read in those alone, agrees
    with the same coefficients read in all m to a few ulps of the sum of
    its terms' magnitudes, and overflows with the same error."""
    order = build_order(m, n)
    coeffs = np.zeros(len(order))
    coeffs[order.head(p)] = rng.uniform(-1.0, 1.0, count_total(p, n))
    compact, full = MultiPoly(p, n, coeffs[order.head(p)]), MultiPoly(m, n, coeffs)
    points, values, ones = rng.uniform(-2.0, 2.0, (9, m)), rng.uniform(-1.0, 1.0, 9), np.ones(9)
    got = corrected_value(values, compact, points, ones, [])
    want = corrected_value(values, full, points, ones, [])
    terms = evaluate_rows(MultiPoly(m, n, np.abs(coeffs)), np.abs(points)) + np.abs(values)
    assert (np.abs(got - want) <= 4 * np.finfo(float).eps * terms).all()
    points[3, 0] = 1e200
    messages = []
    for correction in (compact, full):
        with pytest.raises(ValueError, match="overflowed floating point") as err:
            corrected_value(values, correction, points, ones, [])
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@given(
    st.integers(1, 6),
    st.integers(0, 6),
    st.sampled_from([Fraction(2), Fraction(11, 10)]),
    st.sampled_from([1.0, 0.5]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_restricted_correction_matches_the_kernel(m, n, lam, kappa, shifted, seed):
    """At every leaf whose rows lie on a line along x_0 or an axis flat, the
    correction read restricted to it agrees with row_kernel's to 4 ulps of
    the sum of its terms' magnitudes, for an accumulator reaching p <= d
    variables and, where d < m, p > d."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(-1.0, 1.0, m) if shifted else None
    plan = solver._build_plan(m, n, None, lam, kappa, mu)
    order = build_order(m, n)
    for lo, hi in zip(plan.starts[1:], plan.starts[:-1]):
        rows = plan.nodes.points[lo:hi]
        (d,) = solver._moving_axes(rows[None])
        assert d or len(rows) == 1 or shifted  # unshifted, every leaf of more than one row
        for p in [rng.integers(1, d + 1)] + ([rng.integers(d + 1, m + 1)] if d < m else []) if d else []:
            coeffs = np.zeros(len(order))
            coeffs[order.head(p)] = rng.uniform(-1.0, 1.0, count_total(p, n))
            got = restricted_kernel(MultiPoly(m, n, coeffs), int(d), rows)
            want = evaluate_rows(MultiPoly(m, n, coeffs), rows)
            terms = evaluate_rows(MultiPoly(m, n, np.abs(coeffs)), np.abs(rows))
            assert (np.abs(got - want) <= 4 * np.finfo(float).eps * terms).all(), (m, n, p, d)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (4, 4), (6, 3), (3, 6), (5, 2)])
def test_only_lines_and_axis_flats_are_read_restricted(m, n):
    """A rotated frame's leaves all keep row_kernel; under a shift with no
    zero entry only line leaves are read restricted, and without one every
    leaf after the first is, where its temporaries hold the fewest bytes."""
    frame = np.linalg.qr(np.random.default_rng([73, m]).standard_normal((m, m)))[0]
    rotated = solver._build_plan(m, n, frame, Fraction(2), 1.0, None)
    assert not any(rotated.restrict)
    shifted = solver._build_plan(m, n, None, Fraction(2), 1.0, np.linspace(0.25, 1.0, m))
    restrict, lines = np.array(shifted.restrict), np.array(shifted.lines)
    assert not restrict[~lines].any()
    assert restrict[lines].any() or not lines[1:].any()  # the first leaf reads nothing
    plain = solver._build_plan(m, n, None, Fraction(2), 1.0, None)
    starts, restrict, lines = np.array(plain.starts), np.array(plain.restrict), np.array(plain.lines)
    rows, flat = starts[:-1] - starts[1:], restrict * ~lines
    assert restrict[0] == 0 and flat.any() and (restrict[lines] <= 1).all()
    assert (flat[flat > 0] == rows[flat > 0] - 1).all()  # a flat of d + 1 rows is read in its d coordinates


def test_restricted_leaf_names_the_node_and_its_divisors():
    """On a leaf read restricted, f minus an overflowing correction is a
    ValueError naming the node, and a zero divisor product the
    GeometryConfigError backstop naming the node and the hyperplanes."""
    plan = solver._build_plan(3, 3, None, Fraction(2), 1.0, None)
    i = next(i for i, d in enumerate(plan.restrict) if d > 1)
    rows, d = plan.nodes.points[plan.starts[i + 1] : plan.starts[i]], int(plan.restrict[i])
    node = np.array2string(rows[1], precision=6)
    huge = MultiPoly(3, 3, np.full(count_total(3, 3), 1e308))
    values, product = np.ones(len(rows)), np.ones(len(rows))
    with pytest.raises(ValueError, match=r"overflowed floating point at node \[") as err:
        corrected_value(values, huge, rows, product, ["1", "01"], d)
    assert "coordinates reach" in str(err.value)
    product[1] = 0.0
    with pytest.raises(GeometryConfigError) as err:
        corrected_value(values, MultiPoly.zero(3, 3), rows, product, ["1", "01"], d)
    assert f"the corrected value at node {node} is " in str(err.value)
    assert "divides by the hyperplanes 1, 01," in str(err.value)


def test_overflow_names_the_coordinate_scale():
    # f is bounded, but at lambda 3 in a rotated frame the (3, 12) nodes
    # reach |x| ~ 5e4, where the correction's degree-12 monomials overflow
    w = np.array([0.3, 0.7, 1.1])
    config = SolveConfig(frame=ROTATED_3, lam=Fraction(3))
    with pytest.raises(ValueError) as err:
        solve(lambda p: float(np.cos(w @ p)), 3, 12, config=config)
    message = str(err.value)
    assert message.startswith("f minus the interpolant so far overflowed floating point at node [")
    scale = float(message.split("coordinates reach ")[1].split(" ")[0])
    assert 1e4 <= scale <= 1e7
    assert "(max |x|), so lambda, kappa or mu may be to blame" in message


def test_corrected_value_guard_names_first_close_node():
    points = np.array([[0.0, 1.0], [3.0, 2.0], [4.0, 2.0]])
    product = points[:, 1] - 2.0  # the divisor y - 2
    with pytest.raises(GeometryConfigError, match=r"node \[3\. 2\.\]"):
        corrected_value(np.ones(3), MultiPoly.zero(2, 2), points, product, ["1"])


# ---------------------------------------------------------------------- solve


def test_solve_identity_oracle():
    truth = MultiPoly(2, 2, [1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    q, nodes, report = solve(lambda p: evaluate(truth, p), 2, 2)
    assert np.allclose(q.coeffs, truth.coeffs, atol=1e-12)
    assert len(nodes) == 6
    assert report["multiply_adds"] > 0


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 2), (1, 5), (5, 1), (3, 0)])
def test_solve_constant(m, n):
    q, _, _ = solve(lambda p: 7.0, m, n)
    assert abs(q.coeffs[0] - 7.0) <= 1e-12
    assert np.all(np.abs(q.coeffs[1:]) <= 1e-12)


def test_solve_matches_lu_baseline_oracle(rng):
    truth = MultiPoly(3, 3, rng.uniform(-1.0, 1.0, 20))
    f = lambda p: evaluate(truth, p)
    q, nodes, _ = solve(f, 3, 3)
    v = build_vandermonde(nodes.points, 3, 3)
    ref = lu_solve(v, np.array([f(p) for p in nodes.points]))
    assert np.max(np.abs(q.coeffs - ref)) <= 1e-9


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 3), (6, 2), (2, 6)])
def test_solve_interpolates_at_nodes(m, n):
    for rep in range(10):
        truth = random_poly(m, n, (101, m, n, rep))
        f = lambda p: evaluate(truth, p)
        q, nodes, _ = solve(f, m, n)
        values = np.array([f(p) for p in nodes.points])
        got = np.array([evaluate(q, p) for p in nodes.points])
        assert np.max(np.abs(got - values)) <= 1e-9 * (1 + np.max(np.abs(values)))


def test_solve_interpolates_nonpolynomial():
    """Interpolation at the nodes holds for any f, not only polynomials."""
    f = lambda p: 1.0 / (1.0 + float(p @ p))
    q, nodes, _ = solve(f, 2, 3)
    for p in nodes.points:
        assert abs(evaluate(q, p) - f(p)) <= 1e-9


def test_solve_coefficients_evaluate_like_brute_force(rng):
    """Returned coefficient vectors follow the canonical monomial order."""
    truth = MultiPoly(2, 3, rng.uniform(-1.0, 1.0, 10))
    q, _, _ = solve(lambda p: evaluate(truth, p), 2, 3)
    indices = brute_force_indices(2, 3)
    for p in rng.uniform(-1.0, 1.0, (5, 2)):
        assert brute_force_eval(q.coeffs, indices, p) == pytest.approx(
            evaluate(truth, p), abs=1e-10
        )


# Exponential hyperplane offsets make node coordinates, and with them the
# conditioning of coefficient recovery, grow rapidly with tree depth.  The
# cells below are the measured regime where full recovery to 1e-8 is robust
# across seeds; larger shapes lose digits in any float64 method.
ROUNDTRIP_GRID = [
    (2, 3), (5, 3), (8, 3), (3, 5), (4, 4), (5, 4),
    (4, 5), (2, 6), (6, 4), (14, 2), (1, 20),
]


@pytest.mark.parametrize("m,n", ROUNDTRIP_GRID)
def test_roundtrip_coefficient_recovery(m, n):
    for rep in range(3):
        truth = random_poly(m, n, (11, m, n, rep))
        q, _, _ = solve(lambda p: evaluate(truth, p), m, n)
        assert np.max(np.abs(q.coeffs - truth.coeffs)) <= 1e-8


AGREEMENT_POOL = [
    (2, 2), (3, 2), (5, 2), (8, 2), (12, 2), (2, 3), (3, 3), (4, 3),
    (5, 3), (6, 3), (7, 3), (8, 3), (9, 3), (10, 3), (2, 4), (3, 4),
    (4, 4), (5, 4), (2, 5), (3, 5), (4, 5), (2, 6), (3, 6), (1, 12), (1, 20),
]


@pytest.mark.parametrize("m,n", AGREEMENT_POOL)
def test_solver_agrees_with_lu_baseline(m, n):
    assert count_total(m, n) <= 500
    truth = random_poly(m, n, (3, m, n, 0))
    f = lambda p: evaluate(truth, p)
    q, nodes, _ = solve(f, m, n)
    v = build_vandermonde(nodes.points, m, n)
    ref = lu_solve(v, np.array([f(p) for p in nodes.points]))
    assert np.max(np.abs(q.coeffs - ref)) <= 1e-6


@pytest.mark.parametrize("m,n", [(2, 2), (4, 3), (1, 6), (6, 1), (3, 0)])
def test_degree_soundness(m, n):
    """No coefficient slots beyond degree n exist in the returned object."""
    q, _, _ = solve(lambda p: float(np.sum(p)) + 1.0, m, n)
    assert q.m == m and q.n == n
    assert q.coeffs.shape == (count_total(m, n),)


# ------------------------------------------------------------------- traversal


def must_precede(first, second):
    """Leaf ordering rule, restated independently of the tree walk."""
    for a, b in zip(first, second):
        if a != b:
            return a == 1
    raise AssertionError("leaf labels cannot be prefixes of each other")


def dense_mul_linear(qc, row, order, out=None):
    """The dense lift chain's product of qc and row[0] + <row[1:], x>: a
    dense row [c0, normal] scanned in full, through the lift table of the
    product's own degree (order), a coefficient of 1 adding qc unscaled."""
    nq = qc.size
    if out is None:
        out = np.zeros(len(order))
    out[:nq] += row[0] * qc
    for a, la in enumerate(row[1:].tolist()):
        if la == 1.0:
            out[order.lift(a)[:nq]] += qc
        elif la != 0.0:
            out[order.lift(a)[:nq]] += la * qc
    return out


def dense_embed(chat, t0, direction):
    """The dense lift chain's embedding of sum chat[i] t^i, t = t0 + <direction, x>."""
    m, deg = direction.size, chat.size - 1
    t_row = np.concatenate(([t0], direction))
    acc = np.array([float(chat[deg])])
    for i in range(deg - 1, -1, -1):
        acc = dense_mul_linear(acc, t_row, build_order(m, deg - i))
        acc[0] += chat[i]
    return acc


def iterative_reference_solve(f, m, n):
    """Schedule leaves with an explicit ready set instead of recursion.

    Scans remaining leaves in storage (bit-0 first) order, the reverse of
    the solver's walk, and runs whichever has no unsolved predecessor.
    Returns the accumulated interpolant and the number of times the ready
    set held more than one leaf (the dependency rule orders leaves totally,
    so any schedule it admits is the same schedule and that count is 0).
    Each leaf's correction reads acc in the leading variables its
    forerunners' flats and divisors have reached; by the solver's storage
    rule, either restricted to the leaf's own line or flat, found from its
    rows, or as a polynomial in those variables alone, or in all of them;
    and its last lift adds into acc in place.  Lines are embedded and
    leaves lifted by the dense chain (dense_mul_linear, dense_embed).
    """
    nodes, tree, hyperplanes = assemble_generic(m, n)
    blocks = leaf_slices(nodes)
    leaves = [v for v, sigma in enumerate(tree.sigma) if 1 in sigma]
    acc = MultiPoly.zero(m, n)
    order, reach = build_order(m, n), 0
    pending = list(leaves)
    ambiguous = 0
    while pending:
        ready = [
            leaf
            for leaf in pending
            if not any(
                other != leaf and must_precede(tree.eps[other], tree.eps[leaf])
                for other in pending
            )
        ]
        if len(ready) > 1:
            ambiguous += 1
        leaf = ready[-1]  # right-to-left choice where the rule allows any
        pending.remove(leaf)

        eps = tree.eps[leaf]
        crossed = [hyperplanes[eps[:i] + (1,)] for i, bit in enumerate(eps) if bit == 0]
        divisors = [np.concatenate(([-spec.offset], spec.normal)) for spec in crossed]
        pts = nodes.points[blocks[eps_label(eps)]]
        product = solver._divisor_product(np.array(divisors).reshape(-1, m + 1), pts)
        labels = [str(i) for i in range(len(divisors))]
        # the rows move in their first d coordinates: along x_0 on a line; on a flat, row i + 1 along x_i
        d = 1 + max(np.flatnonzero((pts != pts[0]).any(axis=0)), default=-1)
        lead = pts[:, :d] != 0
        flat = len(pts) == d + 1 and not lead[0].any() and not (lead[1:] & ~np.eye(d, dtype=bool)).any()
        compact, (restrict,) = solver._correction_paths(m, n, np.array([reach]), np.array([d if d == 1 or flat else 0]))
        correction = acc
        if reach == 0:
            correction = None
        elif not restrict and reach <= compact:
            head = [order.table.index(index + (0,) * (m - reach)) for index in build_order(reach, n).table]
            correction = MultiPoly(reach, n, acc.coeffs[head])
        corrected = corrected_value([f(p) for p in pts], correction, pts, product, labels, restrict)
        base = vertex_base(tree, hyperplanes)[tree.flat[leaf]]
        d, k = tree.sigma[leaf]
        if d == 1:
            direction = np.eye(m)[0]
            t = (pts - base) @ direction
            contribution, degree = dense_embed(solve_univariate(t, corrected), -float(direction @ base), direction), k
        else:
            contribution, degree = solve_linear(corrected, np.eye(m)[:d], base), 1
        for row in divisors[:-1]:
            degree += 1
            contribution = dense_mul_linear(contribution, row, build_order(m, degree))
        if divisors:
            dense_mul_linear(contribution, divisors[-1], order, out=acc.coeffs)
        else:
            acc.coeffs += contribution
        assert degree + bool(divisors) == n
        reach = max(reach, d, *(1 + np.flatnonzero(row[1:])[-1] for row in divisors))
    return acc, ambiguous


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 2), (2, 4), (4, 4)])
def test_traversal_order_is_forced_and_result_unique(m, n):
    truth = random_poly(m, n, (13, m, n))
    f = lambda p: evaluate(truth, p)
    q, _, _ = solve(f, m, n)
    ref, ambiguous = iterative_reference_solve(f, m, n)
    assert ambiguous == 0
    assert np.max(np.abs(q.coeffs - ref.coeffs)) <= 1e-10


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 2), (2, 4), (4, 4), (5, 3)])
def test_walk_is_bitwise_the_multipoly_walk(m, n):
    """The plan's divisor table and stored products change no bit of the
    result against products and lifts by each leaf's own hyperplanes."""
    truth = random_poly(m, n, (29, m, n))
    f = lambda p: evaluate(truth, p)
    solver.clear_plans()
    for _ in range(2):
        q, _, _ = solve(f, m, n)
        ref, _ = iterative_reference_solve(f, m, n)
        assert q.coeffs.tobytes() == ref.coeffs.tobytes()


@pytest.mark.parametrize("m,n", [(3, 3), (4, 4), (6, 3), (2, 6), (5, 2)])
def test_reach_grows_from_zero_and_ignores_mu(m, n):
    """Before the first leaf the accumulator reaches no variable, and it
    never shrinks; in the identity frame the first leaf's line reaches x_1
    alone, in a rotated one every variable; a shift mu moves no normal."""
    mu = np.linspace(-0.5, 0.25, m)
    frame = np.linalg.qr(np.random.default_rng([71, m]).standard_normal((m, m)))[0]
    for frame_, second in ((None, 1), (frame, m)):
        plain, shifted = (solver._build_plan(m, n, frame_, Fraction(2), 1.0, shift) for shift in (None, mu))
        assert plain.reach[0] == 0 and (np.diff(plain.reach) >= 0).all() and plain.reach[-1] <= m
        assert plain.reach == shifted.reach and plain.reach[1] == second
    assert set(plain.reach[1:]) == {m}


def plan_leaves(plan):
    """Per leaf of a plan, in walk order: its rows and its divisor table rows."""
    bounds = zip(plan.starts[1:], plan.starts[:-1], plan.indptr[:-1], plan.indptr[1:])
    return [(slice(lo, hi), plan.indices[a:b]) for lo, hi, a, b in bounds]


def table_labels(plan, hyperplanes, mu=None):
    """The label of the hyperplane whose divisor row [c0, normal] each table
    row is, matched by value; KeyError for a row that is none of them."""
    shift = np.zeros(plan.table.shape[1] - 1) if mu is None else mu
    label_of = {
        np.concatenate(([-spec.offset - float(spec.normal @ shift)], spec.normal)).tobytes():
        "".join(map(str, key))
        for key, spec in hyperplanes.items()
    }
    assert len(label_of) == len(hyperplanes)
    return [label_of[row.tobytes()] for row in plan.table]


def test_plan_divisors_are_rows_of_one_table():
    m, n, mu = 3, 4, np.array([0.5, -0.25, 2.0])
    plan = solver._build_plan(m, n, None, Fraction(2), 1.0, mu)
    _, tree, hyperplanes = assemble_generic(m, n)
    # one row per hyperplane, each [-offset - <normal, mu>, normal] exactly
    assert plan.table.shape == (len(hyperplanes), m + 1) == (len(tree_splits(tree)), m + 1)
    labels = table_labels(plan, hyperplanes, mu)
    assert sorted(labels) == sorted("".join(map(str, key)) for key in hyperplanes)
    # every divisor is a row of that table, and every row divides a leaf
    assert sorted(set(plan.indices)) == list(range(len(hyperplanes)))
    for block, rows in plan_leaves(plan):
        eps = plan.nodes.provenance[block.start]
        assert [labels[r] for r in rows] == [eps[:i] + "1" for i, bit in enumerate(eps) if bit == "0"]


@pytest.mark.parametrize("values", [False, True])
def test_leaf_guard_names_node_and_hyperplane(values, monkeypatch):
    # with the relative tolerance at 1 every dividing row counts as close,
    # so the first leaf in storage order that divides fails at its first
    # divisor, that of the split nearest the root
    m, n = 3, 3
    plan = solver._build_plan(m, n, None, Fraction(2), 1.0, None)
    labels = table_labels(plan, assemble_generic(m, n)[2])
    block, rows = next(leaf for leaf in reversed(plan_leaves(plan)) if leaf[1])
    label = plan.nodes.provenance[block.start]
    monkeypatch.setattr(nodes_module, "GEOMETRY_RTOL", 1.0)
    solver.clear_plans()
    f = np.ones(len(plan.nodes)) if values else (lambda p: 1.0)
    with pytest.raises(GeometryConfigError) as err:
        solve(f, m, n)
    assert f"a node of leaf {label} lies within" in str(err.value)
    assert f"splitting hyperplane {labels[rows[0]]};" in str(err.value)


def test_walk_backstop_names_the_leafs_divisors():
    # a zero divisor product, which assembly rules out, makes the walk's
    # non-finite quotient check name the node and the leaf's hyperplanes
    m, n = 3, 3
    solver.clear_plans()
    values = np.ones(count_total(m, n))
    solve(values, m, n)
    (plan,) = solver._plans.values()
    labels = table_labels(plan, assemble_generic(m, n)[2])
    block, rows = next(leaf for leaf in plan_leaves(plan) if len(leaf[1]) > 1)
    plan.divisor[block.start] = 0.0
    try:
        with pytest.raises(GeometryConfigError) as err:
            solve(values, m, n)
    finally:
        solver.clear_plans()
    node = np.array2string(plan.nodes.points[block.start], precision=6)
    assert f"the corrected value at node {node} is " in str(err.value)
    assert f"divides by the hyperplanes {', '.join(labels[r] for r in rows)}," in str(err.value)


def test_walk_leaves_no_reference_cycle(monkeypatch):
    # the tree, hyperplanes and slices are freed when solve returns, not at
    # the garbage collector's next pass
    trees = []

    def assemble(*args, **kwargs):
        out = assemble_generic(*args, **kwargs)
        trees.append(weakref.ref(out[1]))
        return out

    monkeypatch.setattr(solver, "assemble_generic", assemble)
    solver.clear_plans()
    gc.disable()
    try:
        solve(lambda p: 1.0, 4, 3)
        assert trees[0]() is None
    finally:
        gc.enable()


def test_plan_assembles_once_and_keeps_no_tree(monkeypatch):
    trees = []

    def assemble(*args, **kwargs):
        out = assemble_generic(*args, **kwargs)
        trees.append(weakref.ref(out[1]))
        return out

    monkeypatch.setattr(solver, "assemble_generic", assemble)
    solver.clear_plans()
    gc.disable()
    try:
        first = solve(lambda p: float(p.sum()), 4, 3)
        assert len(trees) == 1 and trees[0]() is None
        second = solve(lambda p: float(p.sum()), 4, 3)
        assert len(trees) == 1
    finally:
        gc.enable()
    assert np.array_equal(first[0].coeffs, second[0].coeffs)


# -------------------------------------------------------------- instrumentation


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (6, 3), (8, 2), (2, 6), (4, 4)])
def test_storage_stays_linear_in_m_times_n(m, n):
    total = count_total(m, n)
    q, _, report = solve(lambda p: float(np.sum(p)), m, n)
    assert report["peak_reals_stored"] <= 64 * m * total
    # nothing quadratic in N is ever held; the widest buffer is the node table
    assert report["largest_single_alloc"] <= m * total
    assert report["largest_single_alloc"] < total * total or total <= 3


# a rotation of 3-space with no zero entry, from two 3-4-5 Givens rotations
_GIVENS_XY = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
_GIVENS_YZ = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, -0.8], [0.0, 0.8, 0.6]])
ROTATED_3 = _GIVENS_XY @ _GIVENS_YZ @ _GIVENS_XY


# (m, n, config): multiply_adds, peak_reals_stored less the N node values,
# peak_reals_stored (the same for a callback, which is read into an array of
# N values, as for an array), largest_single_alloc; recorded when a line's
# embedding came to be counted as its lifts are, (1 + the direction's
# non-zeros) N(m + 1, k - 1) + k (before: 193, 818, 4943187, 341276 and
# 888994 multiply-adds at (1, 6), (3, 3), (15, 4), (3, 12) and rotated
# (3, 12), charged (m + 2) (N(m + 1, k) - 1) per embedding; 1092, 20202635
# and 633414 at (3, 3), (15, 4) and (3, 12) before an identity-frame leaf's
# correction was read restricted to its own line or flat; 3, 291, 120, 1588,
# 34817809, 748126 and 936314 before each correction read only the
# variables its leaf's reach holds and the last lift added in place, with
# peaks 130 at (3, 3), 70584 at (15, 4), 3094 at (3, 12))
PINNED_REPORTS = [
    (3, 0, None, 1, 3, 4, 3),
    (1, 6, None, 160, 7, 14, 7),
    (5, 1, None, 48, 30, 36, 30),
    (3, 3, None, 565, 94, 114, 60),
    (15, 4, SolveConfig(lam=Fraction(11, 10)), 4369183, 62968, 66844, 58140),
    (3, 12, SolveConfig(lam=Fraction(11, 10)), 274231, 2470, 2925, 1365),
    (3, 12, SolveConfig(frame=ROTATED_3, lam=Fraction(11, 10)), 846677, 2470, 2925, 1365),
]


# ids name the case, not its counts, so a change of count keeps the test's name
PINNED_IDS = ["3-0", "1-6", "5-1", "3-3", "15-4-lambda11_10", "3-12-lambda11_10", "3-12-rotated"]


@pytest.mark.parametrize("m,n,config,ops,peak_less_values,peak,largest", PINNED_REPORTS, ids=PINNED_IDS)
def test_report_matches_the_pinned_counts(m, n, config, ops, peak_less_values, peak, largest):
    f = lambda p: float(np.cos(p.sum()))
    _, nodes, from_callback = solve(f, m, n, config=config)
    _, _, from_array = solve(np.cos(nodes.points.sum(axis=1)), m, n, config=config)
    expected = {"multiply_adds": ops, "peak_reals_stored": peak, "largest_single_alloc": largest}
    assert from_callback == from_array == expected
    assert peak == peak_less_values + len(nodes)


@pytest.mark.parametrize("m", range(1, 9))
def test_storage_report_is_the_closed_form(m):
    # the nodes, the values, and on a tree the accumulator and a lift to
    # degree n - 1, its input and output
    for n in range(9):
        total = count_total(m, n)
        _, _, report = solve(np.zeros(total), m, n)
        tree = total + count_total(m, n - 1) + count_total(m, n - 2) if m > 1 and n > 1 else 0
        assert report["peak_reals_stored"] == m * total + total + tree
        assert report["largest_single_alloc"] == m * total


def test_op_counts_do_not_depend_on_values():
    m, n = 3, 3
    total = count_total(m, n)
    reports = []
    for seed in (1, 2):
        values = np.random.default_rng(seed).uniform(-5.0, 5.0, total)
        _, _, report = solve(values, m, n)
        reports.append(report)
    _, _, from_callback = solve(lambda p: float(np.cos(p).sum()), m, n)
    assert reports[0]["multiply_adds"] == reports[1]["multiply_adds"]
    assert reports[0]["multiply_adds"] == from_callback["multiply_adds"]
    # both input modes hold the N-entry value table, as a callback is read
    # into one before the walk, so the peaks match
    assert reports[0]["peak_reals_stored"] == reports[1]["peak_reals_stored"]
    assert reports[0]["peak_reals_stored"] == from_callback["peak_reals_stored"]
    assert reports[0]["peak_reals_stored"] == (m + 1) * total + total + count_total(m, n - 1) + count_total(m, n - 2)


def test_op_budget_univariate_and_linear_edges():
    _, _, rep_line = solve(lambda p: p[0] ** 2, 1, 5)
    _, _, rep_flat = solve(lambda p: float(np.sum(p)), 5, 1)
    assert rep_line["multiply_adds"] <= 16 * 25
    assert rep_flat["multiply_adds"] <= 16 * 25


def test_op_scaling_exponent_cubic_degree():
    sizes, counts = [], []
    for m in (4, 8, 16):
        total = count_total(m, 3)
        _, _, report = solve(lambda p: 1.0, m, 3)
        sizes.append(total)
        counts.append(report["multiply_adds"])
    exponent, r_squared = fit_exponent(sizes, counts)
    assert exponent <= 2.3
    assert r_squared >= 0.98


# ------------------------------------------------------------------ input modes


def rotated_3(m):
    """The m x m identity with ROTATED_3 in its leading 3 x 3 block."""
    frame = np.eye(m)
    frame[:3, :3] = ROTATED_3
    return frame


def test_values_mode_matches_callback_exactly(rng):
    # a callback gives the coefficient bytes of a solve of its node values,
    # with the default config and kappa 0.5 plus a shift on the small-solve
    # shapes, and at two large shapes in the identity and a rotated frame
    cases = [(3, 2, SolveConfig())]
    cases += [
        (m, n, config)
        for m, n in SMALL_SOLVE_SHAPES
        for config in (SolveConfig(), SolveConfig(kappa=0.5, mu=rng.uniform(-1.0, 1.0, m)))
    ]
    cases += [
        (m, n, SolveConfig(frame=frame, lam=Fraction(11, 10)))
        for m, n in [(3, 12), (8, 6)]
        for frame in (None, rotated_3(m))
    ]
    for m, n, config in cases:
        weights = rng.uniform(-1.0, 1.0, m)
        f = lambda p: float(np.cos(p @ weights))
        q_cb, nodes, _ = solve(f, m, n, config)
        values = np.array([f(p) for p in nodes.points])
        q_vals, _, _ = solve(values, m, n, config)
        assert q_cb.coeffs.tobytes() == q_vals.coeffs.tobytes(), (m, n, config)


def test_values_mode_rejects_wrong_length():
    with pytest.raises(ValueError):
        solve(np.zeros(7), 2, 2)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (1, 4), (4, 1), (3, 0)])
def test_values_mode_rejects_nan(m, n):
    with pytest.raises(ValueError, match="not finite at node 0: nan"):
        solve(np.full(count_total(m, n), np.nan), m, n)


def test_values_mode_names_first_non_finite_node():
    values = np.ones(count_total(3, 3))
    values[[5, 9]] = [-np.inf, np.nan]
    with pytest.raises(ValueError, match="node 5: -inf"):
        solve(values, 3, 3)


@pytest.mark.parametrize("values", [np.full(6, 1 + 2j), [1.0] * 5 + [2j], np.ones(6, dtype=np.complex64)])
def test_values_mode_refuses_complex_values(values):
    # converting them to floats would drop the imaginary parts, with only a warning
    with pytest.raises(ValueError, match="must be real, got dtype complex"):
        solve(values, 2, 2)


@pytest.mark.parametrize("field,value", [("frame", np.eye(3) * (1 + 1j)), ("mu", np.full(3, 0.5j))])
def test_solve_refuses_a_complex_frame_or_mu(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be real, got dtype complex128$"):
        solve(lambda p: 1.0, 3, 3, SolveConfig(**{field: value}))


@pytest.mark.parametrize("m,n,index", [(3, 3, 7), (2, 4, 14), (1, 5, 2), (5, 1, 3)])
def test_callback_mode_rejects_inf_at_one_node(m, n, index):
    target = assemble_generic(m, n)[0].points[index]
    f = lambda p: np.inf if np.array_equal(p, target) else 1.0
    with pytest.raises(ValueError, match=f"not finite at node {index}: inf"):
        solve(f, m, n)


@pytest.mark.parametrize("m,n", [(2, 2), (4, 4), (1, 5)])
def test_overflowing_solve_raises(m, n):
    # finite values near the top of the float range overflow the divided
    # differences; (1, 5) has no divisor, so only the interpolant shows it
    values = np.random.default_rng(0).uniform(-1.0, 1.0, count_total(m, n)) * 1e308
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="overflowed floating point"):
        solve(values, m, n)


def test_callback_is_called_once_per_node():
    seen = []
    _, nodes, _ = solve(lambda p: seen.append(p.copy()) or 1.0, 3, 3)
    assert len(seen) == len(nodes)
    assert {p.tobytes() for p in seen} == {p.tobytes() for p in nodes.points}


@pytest.mark.parametrize(
    "m,n,config",
    [(3, 3, None), (2, 4, None), (4, 2, None), (3, 3, SolveConfig(frame=ROTATED_3, lam=Fraction(11, 10)))],
)
def test_callback_is_read_once_per_node_in_storage_order(m, n, config):
    # before the walk, which visits the leaves in reverse storage order
    seen = []
    _, nodes, _ = solve(lambda p: seen.append(p.copy()) or 1.0, m, n, config)
    assert np.array_equal(np.array(seen), nodes.points)


def test_callback_cannot_write_into_the_plan():
    solver.clear_plans()
    f = lambda p: float(np.cos(p.sum()))
    before = solve(f, 3, 3)[0].coeffs.tobytes()

    def writes(p):
        p[0] = 0.0
        return 1.0

    with pytest.raises(ValueError, match="read-only"):
        solve(writes, 3, 3)
    assert solve(f, 3, 3)[0].coeffs.tobytes() == before


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (1, 4), (4, 1), (3, 0)])
def test_callback_mode_names_the_lowest_non_finite_node(m, n):
    with pytest.raises(ValueError, match="not finite at node 0: nan"):
        solve(lambda p: np.nan, m, n)
    points = assemble_generic(m, n)[0].points
    low = len(points) // 2
    bad = {points[-1].tobytes(): np.inf, points[low].tobytes(): -np.inf}
    with pytest.raises(ValueError, match=f"not finite at node {low}: -inf"):
        solve(lambda p: bad.get(p.tobytes(), 1.0), m, n)


# ---------------------------------------------------------------- configuration


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@given(
    st.integers(2, 4),
    st.integers(2, 4),
    st.fractions(min_value=Fraction(9, 8), max_value=Fraction(2), max_denominator=8),
    st.floats(min_value=0.5, max_value=2.0),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.integers(0, 2**32 - 1),
)
def test_geometry_knobs_recover_a_random_polynomial(m, n, lam, kappa, shift, angle, seed):
    """lambda, kappa, mu and a rotated frame together still recover f."""
    frame = np.eye(m)
    frame[:2, :2] = rotation(angle)
    config = SolveConfig(frame=frame, lam=lam, kappa=kappa, mu=np.array(shift[:m]))
    truth = random_poly(m, n, (seed, m, n))
    f = lambda p: evaluate(truth, p)
    solver.clear_plans()
    first, nodes, _ = solve(f, m, n, config)
    again, _, _ = solve(f, m, n, config)
    assert np.max(np.abs(first.coeffs - truth.coeffs)) <= 1e-8
    assert again.coeffs.tobytes() == first.coeffs.tobytes()
    # each split's on-rows lie on its hyperplane, its off-rows stay off it
    plain, tree, specs = assemble_generic(m, n, frame=frame, lam=lam, kappa=kappa)
    assert np.array_equal(nodes.points, plain.points + config.mu)
    span = 1.0 + np.abs(plain.points).max()
    for key, _, lo, mid, hi in tree_splits(tree):
        on = plain.points[mid:hi] @ specs[key].normal - specs[key].offset
        off = plain.points[lo:mid] @ specs[key].normal - specs[key].offset
        assert np.abs(on).max() <= 1e-12 * span
        assert np.abs(off).min() > GEOMETRY_RTOL


@given(
    st.integers(2, 4),
    st.integers(2, 4),
    st.fractions(min_value=Fraction(9, 8), max_value=Fraction(2), max_denominator=8),
    st.floats(min_value=0.5, max_value=2.0),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.integers(0, 2**32 - 1),
)
def test_geometry_knobs_agree_with_lu_baseline(m, n, lam, kappa, shift, angle, seed):
    """Under lambda, kappa, mu and a rotated frame, solve matches dense LU."""
    frame = np.eye(m)
    frame[:2, :2] = rotation(angle)
    config = SolveConfig(frame=frame, lam=lam, kappa=kappa, mu=np.array(shift[:m]))
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, count_total(m, n))
    q, nodes, _ = solve(values, m, n, config)
    ref = lu_solve(build_vandermonde(nodes.points, m, n), values)
    assert np.max(np.abs(q.coeffs - ref)) <= 1e-8


@given(
    st.integers(1, 4),
    st.integers(2, 4),
    st.one_of(
        st.integers(1, 10).map(lambda k: 1 + Fraction(k, 10**7)),
        st.fractions(min_value=Fraction(101, 100), max_value=Fraction(4), max_denominator=100),
    ),
    st.one_of(st.floats(min_value=0.25, max_value=4.0), st.floats(min_value=1e-12, max_value=1e-3)),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4),
    st.sampled_from([1.0, 1e4, 1e9]),
    st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_accepted_geometry_keeps_the_construction_guarantees(m, n, lam, kappa, shift, scale, angle):
    """What assembly accepts has distinct nodes and clear divisors, and its
    solve is finite or raises; the rest raises GeometryConfigError."""
    frame = np.eye(m)
    if m > 1:
        frame[:2, :2] = rotation(angle)
    mu = scale * np.array(shift[:m])
    try:
        nodes, tree, specs = assemble_generic(m, n, frame=frame, lam=lam, kappa=kappa, mu=mu)
    except GeometryConfigError:
        return
    if len(nodes) > 1:
        assert pdist(nodes.points).min() > 0
    for key, _, lo, mid, _ in tree_splits(tree) if tree is not None else ():
        const = -specs[key].offset - specs[key].normal @ mu
        off = nodes.points[lo:mid]
        scales = abs(const) + np.abs(off) @ np.abs(specs[key].normal)
        assert (np.abs(const + off @ specs[key].normal) > 1e-12 * scales).all()
    values = np.random.default_rng(len(nodes)).uniform(-1.0, 1.0, len(nodes))
    config = SolveConfig(frame=frame, lam=lam, kappa=kappa, mu=mu)
    try:
        with np.errstate(all="ignore"):
            q, _, _ = solve(values, m, n, config)
    except ValueError as err:
        # nodes shifted out to about 1e8 can overflow the monomial walk even
        # at (4, 4); the solve must then say so rather than return garbage
        assert "overflowed floating point" in str(err)
    else:
        assert np.isfinite(q.coeffs).all()


@given(
    st.one_of(st.tuples(st.integers(1, 5), st.integers(0, 8)), st.tuples(st.just(1), st.integers(0, 399))),
    st.fractions(min_value=Fraction(1001, 1000), max_value=Fraction(4), max_denominator=1000),
    st.floats(min_value=-12.0, max_value=8.0),
    st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=5, max_size=5),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_accepted_geometry_keeps_line_parameters_apart(shape, lam, log_kappa, shift, seed):
    """Assembly's spread guard is the one check on line nodes: wherever it
    accepts, each line leaf's parameters in the plan stand further apart
    than 1e-14 times their span."""
    m, n = shape
    frame = None if seed is None else np.linalg.qr(np.random.default_rng(seed).normal(size=(m, m)))[0]
    try:
        plan = solver._build_plan(m, n, frame, lam, 10.0**log_kappa, np.array(shift[:m]))
    except GeometryConfigError:
        return
    for i in np.flatnonzero(plan.lines):
        t = np.sort(plan.param[plan.starts[i + 1] : plan.starts[i]])
        if t.size > 1:
            assert np.diff(t).min() > 1e-14 * (t[-1] - t[0])


def test_config_mu_translates_nodes_only():
    mu = np.array([0.5, -0.25])
    truth = random_poly(2, 3, (17, 2, 3))
    f = lambda p: evaluate(truth, p)
    q0, nodes0, report0 = solve(f, 2, 3)
    q1, nodes1, report1 = solve(f, 2, 3, config=SolveConfig(mu=mu))
    assert np.allclose(nodes1.points, nodes0.points + mu, atol=1e-12)
    # same f, different node set, same unique interpolant of the polynomial
    assert np.allclose(q1.coeffs, truth.coeffs, atol=1e-9)
    assert np.max(np.abs(q0.coeffs - q1.coeffs)) <= 1e-9
    # a shift moves a flat's base off zero in its own coordinates, so its
    # correction leaves the restricted path; a zero shift changes no count
    _, _, unshifted = solve(f, 2, 3, config=SolveConfig(mu=np.zeros(2)))
    assert report0 == unshifted and report0["peak_reals_stored"] == report1["peak_reals_stored"]


def test_config_full_geometry_against_lu():
    config = SolveConfig(
        frame=rotation(0.3),
        lam=Fraction(3),
        kappa=2.0,
        mu=np.array([0.5, -0.25]),
    )
    truth = random_poly(2, 3, (19, 2, 3))
    f = lambda p: evaluate(truth, p)
    q, nodes, _ = solve(f, 2, 3, config=config)
    v = build_vandermonde(nodes.points, 2, 3)
    ref = lu_solve(v, np.array([f(p) for p in nodes.points]))
    assert np.max(np.abs(q.coeffs - ref)) <= 1e-8
    assert np.max(np.abs(q.coeffs - truth.coeffs)) <= 1e-8


def test_config_kappa_spreads_line_nodes():
    _, narrow, _ = solve(lambda p: 1.0, 1, 3, config=SolveConfig(kappa=1.0))
    _, wide, _ = solve(lambda p: 1.0, 1, 3, config=SolveConfig(kappa=2.0))
    assert np.allclose(wide.points, 2.0 * narrow.points, atol=1e-12)


# ------------------------------------------------------------ plan cache


@pytest.fixture
def assemblies(monkeypatch):
    """Shapes the solver assembled, from an empty plan cache on."""
    seen = []

    def assemble(*args, **kwargs):
        seen.append(args[:2])
        return assemble_generic(*args, **kwargs)

    monkeypatch.setattr(solver, "assemble_generic", assemble)
    solver.clear_plans()
    return seen


def rotated_config(m):
    frame = np.eye(m)
    if m >= 2:
        frame[:2, :2] = rotation(0.3)
    else:
        frame[0, 0] = -1.0
    return SolveConfig(frame=frame, lam=Fraction(3), kappa=2.0, mu=np.linspace(-0.5, 0.25, m))


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("m,n", [(3, 0), (1, 6), (5, 1), (4, 3), (2, 6)])
def test_plan_hit_matches_miss_exactly(m, n, rotated, assemblies):
    config = rotated_config(m) if rotated else None
    truth = random_poly(m, n, (23, m, n))
    f = lambda p: evaluate(truth, p)
    values = np.random.default_rng([m, n]).uniform(-1.0, 1.0, count_total(m, n))
    for arg in (values, f):
        solver.clear_plans()
        q_miss, nodes_miss, report_miss = solve(arg, m, n, config)
        q_hit, nodes_hit, report_hit = solve(arg, m, n, config)
        assert q_hit.coeffs.tobytes() == q_miss.coeffs.tobytes()
        assert report_hit == report_miss
        assert np.array_equal(nodes_hit.points, nodes_miss.points)
        assert nodes_hit.provenance == nodes_miss.provenance
    assert assemblies == [(m, n)] * 2


@pytest.mark.parametrize("m,n,index", [(3, 3, 7), (1, 5, 2)])
def test_plan_hit_reads_callback_once_per_node(m, n, index):
    solver.clear_plans()
    for _ in range(2):
        seen = []
        _, nodes, _ = solve(lambda p: seen.append(p.copy()) or 1.0, m, n)
        assert len(seen) == len(nodes)
        assert {p.tobytes() for p in seen} == {p.tobytes() for p in nodes.points}
    target = nodes.points[index]
    f = lambda p: np.nan if np.array_equal(p, target) else 1.0
    for _ in range(2):
        with pytest.raises(ValueError, match=f"not finite at node {index}: nan"):
            solve(f, m, n)


def test_plan_key_normalises_lambda(assemblies):
    for lam in (2, Fraction(2), 2.0):
        solve(lambda p: 1.0, 3, 3, SolveConfig(lam=lam))
    assert len(assemblies) == 1
    solve(lambda p: 1.0, 3, 3, SolveConfig(lam=3))
    assert len(assemblies) == len(solver._plans) == 2


def test_plan_keeps_its_own_copy_of_frame_and_mu(assemblies):
    frame, mu = np.eye(3), np.array([0.5, 0.0, -0.25])
    config = SolveConfig(frame=frame.copy(), mu=mu.copy())
    before = solve(lambda p: float(p[0] ** 2), 3, 3, config)
    config.frame[:2, :2] = rotation(0.3)
    config.mu[0] = 2.0
    again = solve(lambda p: float(p[0] ** 2), 3, 3, SolveConfig(frame=frame, mu=mu))
    assert len(assemblies) == 1
    assert again[0].coeffs.tobytes() == before[0].coeffs.tobytes()


@pytest.mark.parametrize(
    "m,n,config",
    [
        (1, 2, SolveConfig(kappa=1e-15)),
        (3, 3, SolveConfig(lam=1)),
        # line nodes about 0.01 apart at coordinates near 1e7 and 5e8
        (2, 25, SolveConfig()),
        (2, 30, SolveConfig()),
        # line nodes 0.045 apart at coordinates near 1.1e9
        (2, 20, SolveConfig(frame=rotation(0.3), lam=3, kappa=2.0, mu=[-0.5, 0.25])),
        # a base case is a one-leaf tree, and refuses lambda 1 too
        (1, 3, SolveConfig(lam=1)),
        (3, 0, SolveConfig(lam=1)),
        (4, 1, SolveConfig(lam=1)),
    ],
)
def test_ill_posed_config_raises_on_every_call(m, n, config, assemblies):
    for _ in range(2):
        with pytest.raises(GeometryConfigError):
            solve(lambda p: 1.0, m, n, config)
    assert len(assemblies) == 2
    assert not solver._plans


@pytest.mark.parametrize(
    "m,n,config",
    [
        (2, 3, SolveConfig(mu=[np.nan, 0.0])),
        (2, 2, SolveConfig(mu=[np.inf, 0.0])),
        (1, 4, SolveConfig(mu=[-np.inf])),
        (3, 3, SolveConfig(frame=np.full((3, 3), np.nan))),
    ],
)
def test_non_finite_geometry_raises_and_keeps_no_plan(m, n, config, assemblies):
    for _ in range(2):
        with pytest.raises(ValueError, match="has a non-finite entry"):
            solve(lambda p: 1.0, m, n, config)
    assert len(assemblies) == 2
    assert not solver._plans


def test_plan_cache_keeps_at_most_32_plans(assemblies):
    for shift in range(40):
        solve(lambda p: 1.0, 2, 2, SolveConfig(mu=np.array([float(shift), 0.0])))
    assert len(assemblies) == 40
    assert len(solver._plans) == solver.PLAN_CACHE_SIZE == 32


def test_plan_cache_drops_least_recent_over_reals_budget(monkeypatch, assemblies):
    # reals (m + 2) * N in points and per-node vectors, plus the divisor
    # table, plus each plan's m x m frame, plus one per entry of the walk's
    # lists: (20,0) 22 + 400 + 9, (4,3) 255 + 16 + 87, (2,3) 46 + 4 + 26,
    # (3,3) 120 + 9 + 52, (2,4) 69 + 4 + 36
    monkeypatch.setattr(solver, "PLAN_CACHE_REALS", 300)
    for shape in [(20, 0), (4, 3), (2, 3), (3, 3), (3, 3), (2, 3), (2, 4)]:
        solve(lambda p: 1.0, *shape)
    # (20,0) and (4,3) alone are over budget; (3,3) was least recently used
    # when (2,4) came
    assert assemblies == [(20, 0), (4, 3), (2, 3), (3, 3), (2, 4)]
    assert [key[:2] for key in solver._plans] == [(2, 3), (2, 4)]
    solve(lambda p: 1.0, 4, 3)  # an oversized plan leaves the others kept
    assert [key[:2] for key in solver._plans] == [(2, 3), (2, 4)]
    solver.clear_plans()
    assert not solver._plans


def test_plan_cache_keeps_the_large_solve_shapes(assemblies):
    # the benchmark's large-solve shapes at lambda 11/10 weigh about 204k of
    # the 2^18 reals; a repeat call gains only while its plan is kept
    shapes = [(12, 3), (10, 4), (20, 3), (8, 6), (15, 4), (3, 12)]
    config = SolveConfig(lam=Fraction(11, 10))
    for m, n in shapes:
        solve(np.ones(count_total(m, n)), m, n, config)
    assert [key[:2] for key in solver._plans] == shapes
    solver.clear_plans()


@pytest.mark.parametrize("m,n", [(8, 6), (15, 4)])
def test_a_solve_builds_only_its_own_lift_table(m, n):
    """Every lift of a solve reads the (m, n) order's table, of which a lower
    degree's is a prefix, so no other order in m or fewer variables and of
    degree n or less holds one; the orders the walk reads for their
    recurrence alone (row_kernel, restricted_kernel, head) build none."""
    solver.clear_plans()
    monomials.build_order.cache_clear()
    solve(np.ones(count_total(m, n)), m, n, SolveConfig(lam=Fraction(11, 10)))
    built = [(p, k) for p in range(1, m + 1) for k in range(n + 1) if build_order(p, k)._lifts is not None]
    assert built == [(m, n)]
    solver.clear_plans()


def _traced_peak(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m,n", [(4, 3), (6, 3), (3, 6)])
def test_first_solve_peaks_no_higher_than_assembly_plus_walk(m, n):
    # building and keeping a plan adds nothing to the peak of a first solve
    # beyond what assembling the nodes and walking a kept plan take
    values = np.ones(count_total(m, n))
    solve(values, m, n)
    walk = _traced_peak(lambda: solve(values, m, n))
    assembly = _traced_peak(lambda: assemble_generic(m, n))
    solver.clear_plans()
    first = _traced_peak(lambda: solve(values, m, n))
    assert first <= assembly + walk


@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("n", range(2, 9))
def test_plan_walks_leaves_in_reverse_storage_order(m, n):
    plan = solver._build_plan(m, n, None, Fraction(2), 1.0, None)
    nodes, leaves = plan.nodes, plan_leaves(plan)
    assert len(leaves) > 1  # a tree, not one treeless leaf
    # the leaves tile the rows, walked from the last to the first
    assert [block for block, _ in leaves] == list(leaf_slices(nodes).values())[::-1]
    labels = table_labels(plan, assemble_generic(m, n)[2])
    for (block, rows), line in zip(leaves, plan.lines):
        # a leaf divides by the hyperplane of each 0 bit of its path
        eps = nodes.provenance[block.start]
        assert set(nodes.provenance[block]) == {eps}
        expected = [eps[:i] + "1" for i, bit in enumerate(eps) if bit == "0"]
        assert [labels[r] for r in rows] == expected
        assert line == (eps.count("1") == m - 1)  # a line has dimension 1


@pytest.mark.parametrize(
    "m,n,lam",
    [
        *(pytest.param(m, n, None, id=f"{m}-{n}") for m, n in [(3, 4), (5, 3), (4, 4), (3, 12), (8, 6)]),
        *(pytest.param(m, n, Fraction(11, 10), id=f"{m}-{n}-11/10") for m, n in [(3, 4), (5, 3), (4, 4), (2, 25)]),
        pytest.param(1, 6, None, id="1-6"),  # a one-leaf tree: a line
        pytest.param(5, 1, None, id="5-1"),  # a one-leaf tree: a flat
        pytest.param(4, 0, None, id="4-0"),  # a one-leaf tree: degree 0, walked as a line
    ],
)
@pytest.mark.parametrize("rotated", [False, True])
def test_plan_quantities_are_bitwise_the_walk_expressions(m, n, lam, rotated):
    # the stored divisor product, line parameter and line offset of every
    # node and leaf, and a flat's base, have the bits of the expressions
    # the walk would compute them with from the leaf's own hyperplanes; a
    # one-leaf tree's leaf lies at mu and divides by nothing
    config = rotated_config(m) if rotated else SolveConfig(mu=np.linspace(-0.5, 0.25, m))
    config.lam = config.lam if lam is None else lam
    frame = np.eye(m) if config.frame is None else config.frame
    plan = solver._build_plan(m, n, config.frame, Fraction(config.lam), config.kappa, config.mu)
    _, tree, hyperplanes = assemble_generic(
        m, n, frame=config.frame, lam=config.lam, kappa=config.kappa
    )
    blocks, leaves = leaf_slices(plan.nodes), []
    for leaf in reversed(tree.leaves):
        crossed = [hyperplanes[leaf.eps[:j] + (1,)] for j, bit in enumerate(leaf.eps) if bit == 0]
        base = vertex_base(tree, hyperplanes)[tree.flat[tree.eps.index(leaf.eps)]] + config.mu
        leaves.append((blocks[eps_label(leaf.eps)], crossed, leaf.sigma[0] == 1 or leaf.sigma[1] == 0, base))
    assert len(plan.lines) == len(leaves)
    for i, (block, crossed, line, base) in enumerate(leaves):
        assert block == slice(plan.starts[i + 1], plan.starts[i])
        pts = plan.nodes.points[block]
        rows = np.array(
            [[-spec.offset - float(spec.normal @ config.mu), *spec.normal] for spec in crossed]
        ).reshape(len(crossed), m + 1)
        factors = rows[:, :1] + rows[:, 1:] @ pts.T
        assert plan.divisor[block].tobytes() == np.prod(factors, axis=0).tobytes()
        assert plan.lines[i] == line
        if line:
            assert plan.param[block].tobytes() == ((pts - base) @ frame[0]).tobytes()
            assert plan.offsets[i] == -float(frame[0] @ base)
        else:
            assert pts[0].tobytes() == base.tobytes()
            assert not plan.param[block].any() and plan.offsets[i] == 0.0


def test_overflowing_divisor_product_is_rejected_when_planned():
    # at (2, 90) and lambda 11/10 the products of the 88 divisors of leaf
    # 0...01 pass the float range at its nodes; at (2, 85) the largest
    # product is about 3e287, and f = 0 solves to zero coefficients
    config = SolveConfig(lam=Fraction(11, 10))
    solver.clear_plans()
    with pytest.raises(GeometryConfigError) as err:
        solve(np.zeros(count_total(2, 90)), 2, 90, config)
    assert not solver._plans
    assert str(err.value).startswith(f"the divisor product of leaf {'0' * 88}1 overflows at node ")
    assert str(err.value).endswith("; the lambda/kappa configuration is ill posed")
    q, _, _ = solve(np.zeros(count_total(2, 85)), 2, 85, config)
    solver.clear_plans()
    assert not q.coeffs.any()


def test_kept_plan_holds_at_most_300_bytes_per_node():
    config = SolveConfig(lam=Fraction(11, 10))
    solve(np.ones(count_total(8, 6)), 8, 6, config)  # build every cache a plan may use
    solver.clear_plans()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solver._plan(8, 6, config)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        solver.clear_plans()
    assert held <= 300 * count_total(8, 6)


def test_returned_nodes_cannot_change_the_plan():
    solver.clear_plans()
    q0, nodes, _ = solve(lambda p: float(p[0]), 3, 3)
    points, provenance = nodes.points.copy(), list(nodes.provenance)
    with pytest.raises(ValueError):
        nodes.points[0, 0] = 99.0
    with pytest.raises(TypeError):  # the plan's own labels, a tuple
        nodes.provenance[0] = "tampered"
    q1, again, _ = solve(lambda p: float(p[0]), 3, 3)
    assert np.array_equal(again.points, points)
    assert list(again.provenance) == provenance
    assert q1.coeffs.tobytes() == q0.coeffs.tobytes()
