"""Dense baseline: build/solve/invert examples, genericity oracle, conditioning."""

import gc
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_force_indices
from mvinterp.exceptions import SingularMatrixError
from mvinterp.monomials import count_degree, count_total
from mvinterp.fileio import format_nodes, parse_nodes
from mvinterp.nodes import NodeSet, assemble_generic
from mvinterp.polynomial import MultiPoly, evaluate
from mvinterp.vandermonde import (
    COND_DESK_LIMIT,
    _balance_pow2,
    _box_normalize,
    _dense_certificate,
    _fill_vandermonde,
    _pow2_row_scales,
    _variable_degree_sum,
    build_vandermonde,
    cond_two,
    genericity_check,
    invert,
    invert_ops,
    lu_factor_ops,
    lu_solve,
    lu_solve_ops,
)

UNIT_SIMPLEX_21 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_build_examples():
    np.testing.assert_array_equal(
        build_vandermonde(UNIT_SIMPLEX_21, 2, 1),
        [[1, 0, 0], [1, 1, 0], [1, 0, 1]],
    )
    np.testing.assert_array_equal(
        build_vandermonde(np.array([[-1.0], [0.0], [1.0]]), 1, 2),
        [[1, -1, 1], [1, 0, 0], [1, 1, 1]],
    )
    np.testing.assert_array_equal(build_vandermonde(np.zeros((1, 1)), 1, 0), [[1.0]])


def test_build_rejects_bad_shapes():
    with pytest.raises(ValueError):
        build_vandermonde(np.zeros((3, 3)), 2, 1)
    with pytest.raises(ValueError):
        build_vandermonde(np.zeros((4, 2)), 2, 1)


def test_build_column_order_matches_evaluation(rng):
    for m, n in [(2, 3), (3, 2), (4, 4), (1, 6)]:
        nodes, _, _ = assemble_generic(m, n)
        v = build_vandermonde(nodes, m, n)
        coeffs = rng.uniform(-1.0, 1.0, count_total(m, n))
        poly = MultiPoly(m, n, coeffs)
        direct = np.array([evaluate(poly, p) for p in nodes.points])
        scale = 1.0 + np.abs(direct).max()
        np.testing.assert_allclose(v @ coeffs, direct, atol=1e-12 * scale)


def test_build_rows_are_symmetric_powers():
    pts = np.array([[2.0, -1.0], [0.5, 3.0], [1.0, 1.0], [0.0, 0.0], [-2.0, 0.5], [1.5, -0.5]])
    v = build_vandermonde(pts, 2, 2)
    indices = brute_force_indices(2, 2)
    for i, p in enumerate(pts):
        expected = [p[0] ** a * p[1] ** b for a, b in indices]
        np.testing.assert_allclose(v[i], expected, atol=0)


def test_lu_solve_examples():
    v = build_vandermonde(UNIT_SIMPLEX_21, 2, 1)
    np.testing.assert_allclose(lu_solve(v, [1.0, 3.0, 0.0]), [1.0, 2.0, -1.0])
    np.testing.assert_array_equal(lu_solve(np.eye(4), [3.0, 1.0, 4.0, 1.0]), [3, 1, 4, 1])
    v12 = build_vandermonde(np.array([[-1.0], [0.0], [1.0]]), 1, 2)
    np.testing.assert_allclose(lu_solve(v12, [1.0, 0.0, 1.0]), [0.0, 0.0, 1.0], atol=1e-15)


def test_lu_solve_residual_report():
    v = build_vandermonde(UNIT_SIMPLEX_21, 2, 1)
    rhs = np.array([1.0, 3.0, 0.0])
    assert np.abs(v @ lu_solve(v, rhs) - rhs).max() <= 1e-14


def test_lu_solve_rejects_singular():
    collinear = build_vandermonde(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), 2, 1)
    with pytest.raises(SingularMatrixError):
        lu_solve(collinear, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        lu_solve(np.eye(3), [1.0, 2.0])
    with pytest.raises(ValueError):
        lu_solve(np.zeros((2, 3)), [1.0, 2.0])


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_dense_baselines_reject_non_finite_input(value):
    v = build_vandermonde(assemble_generic(2, 2)[0], 2, 2)
    rhs = np.linspace(-1.0, 1.0, 6)
    rhs[4] = value
    with pytest.raises(ValueError, match="rhs row 4 is not finite"):
        lu_solve(v, rhs)
    rhs[4] = 0.5
    v[4, 1] = value
    v[5, 0] = value  # a later bad row is not the one named
    with pytest.raises(ValueError, match="matrix row 4 is not finite: entry 1"):
        lu_solve(v, rhs)
    with pytest.raises(ValueError, match="matrix row 4 is not finite: entry 1"):
        invert(v)
    with pytest.raises(ValueError, match="matrix row 1 is not finite"):
        lu_solve(np.diag([1.0, value, 1.0]), [1.0, 2.0, 3.0])


def test_dense_routines_name_an_empty_matrix():
    empty = np.empty((0, 0))
    for call in (lambda: lu_solve(empty, np.empty(0)), lambda: invert(empty), lambda: cond_two(empty)):
        with pytest.raises(ValueError, match=r"matrix is empty: shape \(0, 0\)"):
            call()


def test_invert_examples():
    np.testing.assert_allclose(
        invert(np.array([[1.0, 0.0], [1.0, 1.0]])), [[1, 0], [-1, 1]]
    )
    np.testing.assert_array_equal(invert(np.eye(5)), np.eye(5))
    for m in [2, 3, 6]:
        pts = np.vstack([np.zeros(m), np.eye(m)])
        inv = invert(build_vandermonde(pts, m, 1))
        np.testing.assert_allclose(inv[:, 0], [1.0] + [-1.0] * m)


def test_lu_solve_and_invert_agree(rng):
    for size in [20, 120, 400]:
        v = rng.standard_normal((size, size))
        rhs = rng.uniform(-1.0, 1.0, size)
        gap = np.abs(lu_solve(v, rhs) - invert(v) @ rhs).max()
        assert gap <= 1e-8 * max(1.0, np.abs(rhs).max())


def test_roundtrip_against_inverse(rng):
    nodes, _, _ = assemble_generic(3, 3)
    v = build_vandermonde(nodes, 3, 3)
    coeffs = rng.uniform(-1.0, 1.0, len(nodes))
    values = v @ coeffs
    np.testing.assert_allclose(lu_solve(v, values), coeffs, atol=1e-9)


def _balance_four_passes(v):
    """Two-sided power-of-two balancing with a fixed four row and four
    column half-passes; the fixed-point balancing must match it bit for bit."""
    total_exp = 0
    for _ in range(4):
        for axis in (1, 0):
            mx = np.abs(v).max(axis=axis)
            _, exps = np.frexp(mx)
            exps[mx == 0.0] = 0
            scales = np.ldexp(np.ones_like(mx), exps)
            v /= scales[:, None] if axis == 1 else scales[None, :]
            total_exp += int(exps.sum())
    return v, total_exp


def _certificate_matrix(m, n):
    """The box-normalized points of an assembled set and their V, in the
    layout the dense certificate fills."""
    nodes, _, _ = assemble_generic(m, n, lam=Fraction(11, 10), mu=np.linspace(-0.5, 1.0, m))
    mapped, _ = _box_normalize(nodes.points)
    total = count_total(m, n)
    v = np.empty((total, total), order="F")
    _fill_vandermonde(v, mapped, m, n)
    return mapped, v


def test_balance_matches_four_fixed_passes(rng):
    wide = np.ldexp(rng.uniform(-1.0, 1.0, (40, 40)), rng.integers(-664, 665, (40, 40)))  # 1e-200..1e200
    wide[3] = 0.0
    wide[:, 7] = 0.0
    # the first row half-pass scales nothing here, the column one does
    rows_balanced = np.array([[0.75, 1e-5, 0.0], [-0.5, 1e-3, 0.0], [0.5, 0.0, 0.0]])
    for v in (_certificate_matrix(10, 4)[1], _certificate_matrix(3, 6)[1], wide, rows_balanced):
        expected, expected_exp = _balance_four_passes(v.copy())
        got, got_exp = _balance_pow2(v.copy())
        assert got.tobytes() == expected.tobytes()
        assert got_exp == expected_exp


def test_pow2_row_scales_need_no_zero_row_case(rng):
    """frexp gives 0 the exponent 0, so a zero row's scale is already 1."""
    wide = np.ldexp(rng.uniform(-1.0, 1.0, (40, 40)), rng.integers(-664, 665, (40, 40)))  # 1e-200..1e200
    wide[3] = 0.0
    for v in (_certificate_matrix(10, 4)[1], _certificate_matrix(3, 6)[1], wide, np.stack([wide, wide[::-1]])):
        row_max = np.abs(v).max(axis=-1).ravel().tolist()
        expected = [1.0 if top == 0.0 else math.ldexp(1.0, math.frexp(top)[1]) for top in row_max]
        got = _pow2_row_scales(v)
        assert got.shape == v.shape[:-1]
        assert got.ravel().tobytes() == np.array(expected).tobytes()
    assert _pow2_row_scales(wide)[3] == 1.0


def test_variable_degree_sum_closed_form():
    """C(m + n, m + 1) is the sum of k * count_degree(m, k) over k <= n,
    divided by m: each variable carries a 1/m share of every degree."""
    for m in range(1, 11):
        for n in range(11):
            degrees = sum(k * count_degree(m, k) for k in range(1, n + 1))
            assert degrees % m == 0
            assert _variable_degree_sum(m, n) == degrees // m


def test_genericity_positive_examples():
    r = genericity_check(UNIT_SIMPLEX_21, 2, 1)
    assert r["generic"] is True
    assert r["abs_det_log"] == pytest.approx(0.0, abs=1e-12)  # det = 1
    # cond_1 describes the box-normalized system: the simplex maps onto
    # corners of [-1,1]^2 where norm(V)_1 = 3 and norm(inv V)_1 = 1
    assert r["cond_1"] == pytest.approx(3.0)
    nodes, tree, hp = assemble_generic(3, 3)
    r = genericity_check(nodes, 3, 3, tree=tree, hyperplanes=hp)
    assert r["generic"] is True and r["route"] == "structured"
    assert np.isfinite(r["abs_det_log"]) and np.isfinite(r["cond_1"])


def test_genericity_negative_collinear():
    r = genericity_check(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), 2, 1)
    assert r["generic"] is False
    assert r["abs_det_log"] == float("-inf")
    assert r["cond_1"] == float("inf")


def test_genericity_negative_six_on_a_line():
    t = np.linspace(-1.0, 2.0, 6)
    pts = np.stack([t, 0.5 * t - 1.0], axis=1)
    r = genericity_check(pts, 2, 2)
    assert r["generic"] is False


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_genericity_negative_on_polynomial_zero_set(m, n, rng):
    # nodes on the graph x_m = r(x_1..x_{m-1}) with deg r <= n all satisfy
    # the degree-<=n equation x_m - r = 0, so the set is degenerate
    total = count_total(m, n)
    base = rng.uniform(-1.0, 1.0, (total, m - 1))
    r_coeffs = rng.uniform(-1.0, 1.0, count_total(m - 1, n))
    poly = MultiPoly(m - 1, n, r_coeffs)
    last = np.array([evaluate(poly, p) for p in base])
    pts = np.column_stack([base, last])
    result = genericity_check(pts, m, n)
    assert result["generic"] is False


def test_genericity_route_reconstruction():
    nodes, _, _ = assemble_generic(2, 20)
    r = genericity_check(nodes, 2, 20)
    assert r["generic"] is True and r["route"] == "structured"
    # stripping provenance forces the dense route, which cannot certify the
    # huge-offset geometry and honestly reports non-generic
    bare = genericity_check(nodes.points, 2, 20)
    assert bare["route"] == "dense"


def test_genericity_structured_vs_dense_logdet():
    for m, n in [(2, 3), (3, 3), (4, 2), (2, 6)]:
        nodes, tree, hp = assemble_generic(m, n)
        s = genericity_check(nodes, m, n, tree=tree, hyperplanes=hp)
        d = genericity_check(nodes.points, m, n)
        assert s["route"] == "structured" and d["route"] == "dense"
        assert d["generic"] is True
        assert s["abs_det_log"] == pytest.approx(d["abs_det_log"], rel=1e-9)


def test_genericity_structured_rejects_tampered_provenance():
    nodes, tree, hp = assemble_generic(2, 2)
    # move an on-hyperplane node off its plane: membership fails, the dense
    # route takes over and still judges the (still unisolvent) set correctly
    nodes.points[4, 1] += 0.25
    r = genericity_check(nodes, 2, 2, tree=tree, hyperplanes=hp)
    assert r["route"] == "dense"
    assert r["generic"] is True


def test_genericity_structured_needs_storage_order():
    # the same points and labels with the blocks of leaves 00 (rows 0:4)
    # and 010 (rows 4:7) swapped: still contiguous, but no longer the
    # assembled layout the split row ranges address, so the dense route
    # judges the (still unisolvent) set
    nodes, tree, hp = assemble_generic(3, 3)
    order = [*range(4, 7), *range(0, 4), *range(7, len(nodes))]
    swapped = NodeSet(nodes.points[order], [nodes.provenance[i] for i in order], 3, 3)
    r = genericity_check(swapped, 3, 3, tree=tree, hyperplanes=hp)
    assert r["route"] == "dense"
    assert r["generic"] is True


def test_genericity_structured_takes_any_label_sequence():
    nodes, tree, hp = assemble_generic(3, 3)
    expected = genericity_check(nodes, 3, 3, tree=tree, hyperplanes=hp)
    assert expected["route"] == "structured"
    for labels in (tuple(nodes.provenance), np.array(nodes.provenance)):
        relabelled = NodeSet(nodes.points, labels, 3, 3)
        assert genericity_check(relabelled, 3, 3, tree=tree, hyperplanes=hp) == expected


def test_genericity_mu_shifted_node_file_stays_structured():
    # without hyperplanes the offsets are read off the nodes, so a shifted
    # set read back from its file is still certified by the structured route
    nodes, _, _ = assemble_generic(4, 3, mu=np.array([0.5, -1.25, 3.0, 0.125]))
    back = parse_nodes(format_nodes(nodes))
    r = genericity_check(back, 4, 3)
    assert r["route"] == "structured"
    assert r["generic"] is True and np.isfinite(r["abs_det_log"])


@pytest.mark.parametrize(
    "m,n,mu", [(2, 20, (0.5, 0.5)), (3, 3, (0.5, -1.0, 2.0)), (4, 3, (0.5, -1.25, 3.0, 0.125))]
)
def test_genericity_mu_shifted_assembly_with_its_hyperplanes(m, n, mu):
    # assembly reports the untranslated hyperplanes next to translated
    # points; the structured route takes only their normals and reads each
    # offset off the nodes, so the triple certifies as the bare node set does
    nodes, tree, hp = assemble_generic(m, n, mu=np.array(mu))
    given = genericity_check(nodes, m, n, tree=tree, hyperplanes=hp)
    bare = genericity_check(nodes, m, n)
    assert given["route"] == bare["route"] == "structured"
    assert given["generic"] is bare["generic"] is True
    assert given["abs_det_log"] == pytest.approx(bare["abs_det_log"], rel=1e-12)


def test_genericity_mu_shifted_rotated_assembly_with_its_hyperplanes():
    # a rotated frame needs the hyperplanes' normals; offsets still come
    # from the translated nodes
    c, s = np.cos(0.3), np.sin(0.3)
    frame = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    nodes, tree, hp = assemble_generic(3, 3, frame=frame, mu=np.array([0.5, -1.0, 2.0]))
    given = genericity_check(nodes, 3, 3, tree=tree, hyperplanes=hp)
    dense = genericity_check(nodes.points, 3, 3)
    assert given["route"] == "structured" and given["generic"] is True
    assert given["abs_det_log"] == pytest.approx(dense["abs_det_log"], rel=1e-9)


@pytest.mark.parametrize("m,n", [(3, 3), (4, 4), (7, 3), (5, 5)])
def test_genericity_cond_1_matches_an_independent_inverse(m, n):
    # cond_1 inverts the LU in place; NumPy's norm of the matrix and of its
    # inverse from gesv, on the same box-normalized, balanced V, agree
    nodes, _, _ = assemble_generic(m, n)
    mapped, _ = _box_normalize(nodes.points)
    total = count_total(m, n)
    v = np.empty((total, total), order="F")
    _fill_vandermonde(v, mapped, m, n)
    balanced, _ = _balance_pow2(v)
    expected = np.linalg.norm(balanced, 1) * np.linalg.norm(np.linalg.inv(balanced), 1)
    assert genericity_check(nodes.points, m, n)["cond_1"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("m,n", [(10, 4), (6, 6)])
def test_dense_certificate_holds_one_square_array(m, n):
    # V is filled, balanced, factored and inverted in place: its traced peak
    # stays within a quarter of an N x N array more than V itself
    nodes, _, _ = assemble_generic(m, n)
    points = np.array(nodes.points)
    _dense_certificate(points[: count_total(2, 2), :2], 2, 2)  # SciPy's import is not the certificate's
    gc.collect()
    tracemalloc.start()
    try:
        result = _dense_certificate(points, m, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result["generic"] is True and np.isfinite(result["cond_1"])
    total = count_total(m, n)
    assert peak <= 1.25 * total * total * 8, peak / (total * total * 8)


def test_genericity_cond_desk_scale_cutoff():
    # above COND_DESK_LIMIT nodes the explicit inverse, so cond_1, is skipped
    assert count_total(15, 4) > COND_DESK_LIMIT
    nodes, tree, hp = assemble_generic(15, 4, lam=Fraction(11, 10))
    r = genericity_check(nodes, 15, 4, tree=tree, hyperplanes=hp)
    assert r["route"] == "structured" and r["generic"] is True
    assert np.isnan(r["cond_1"])


def test_genericity_shape_validation():
    with pytest.raises(ValueError):
        genericity_check(np.zeros((4, 2)), 2, 2)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_genericity_rejects_non_finite_points(value):
    nodes, tree, hp = assemble_generic(2, 2)
    nodes.points[4, 1] = value
    for points in (nodes, nodes.points):
        with pytest.raises(ValueError, match="node 4 is not finite"):
            genericity_check(points, 2, 2)
    with pytest.raises(ValueError, match="node 4 is not finite"):
        genericity_check(nodes, 2, 2, tree=tree, hyperplanes=hp)


def test_jacobi_matches_reference_svd(rng):
    # cond_two took over from the former Jacobi SVD; its ratio of extreme
    # singular values must match numpy's SVD on the same matrices
    for size in [1, 2, 10, 40]:
        a = rng.standard_normal((size, size))
        ref = np.linalg.svd(a, compute_uv=False)
        assert cond_two(a) == pytest.approx(ref[0] / ref[-1], rel=1e-10)
    nodes, _, _ = assemble_generic(2, 3)
    v = build_vandermonde(nodes, 2, 3)
    ref = np.linalg.svd(v, compute_uv=False)
    assert cond_two(v) == pytest.approx(ref[0] / ref[-1], rel=1e-10)


def test_cond_two_examples(rng):
    assert cond_two(np.eye(4)) == pytest.approx(1.0)
    assert cond_two(np.array([[1.0, 1.0], [1.0, 1.0]])) == float("inf")
    a = rng.standard_normal((25, 25))
    assert cond_two(a) == pytest.approx(np.linalg.cond(a, 2), rel=1e-10)
    # six points on a circle: x^2 + y^2 - 1 vanishes on all of them
    angles = np.arange(6) * np.pi / 3
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    assert cond_two(build_vandermonde(circle, 2, 2)) == float("inf")


def test_jacobi_guards(rng):
    # non-square input is refused; there is no size cap any more, so a
    # 330-column matrix (above the former Jacobi limit of 300) is accepted
    with pytest.raises(ValueError):
        cond_two(np.zeros((2, 3)))
    a = rng.standard_normal((330, 330))
    assert cond_two(a) == pytest.approx(np.linalg.cond(a, 2), rel=1e-10)


def test_op_count_formulas():
    assert lu_factor_ops(1) == 0
    assert lu_factor_ops(2) == 2
    assert lu_factor_ops(3) == 8
    assert lu_solve_ops(5) == 25
    assert invert_ops(3) == 8 + 27
    # manual elimination count for size 3: step 1 does 2 divisions and a
    # 2x2 update (4), step 2 does 1 division and a 1x1 update (1)
    assert lu_factor_ops(3) == 2 + 4 + 1 + 1


def test_desk_limit_constant_sane():
    assert 300 <= COND_DESK_LIMIT <= 5000
