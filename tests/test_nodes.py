"""Generic node assembly: per-leaf blocks, counts, distinctness, unisolvence."""

import itertools
from fractions import Fraction
from math import comb, cos, pi

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from conftest import brute_force_indices
from mvinterp.exceptions import GeometryConfigError
from mvinterp.monomials import count_total
from mvinterp.nodes import NodeSet, _check_separation, assemble_generic, leaf_nodes, leaf_slices
from mvinterp.tree import HyperplaneTable, alpha, assign_hyperplanes, build_tree, eps_label, vertex_base


def brute_vandermonde(points, m, n):
    indices = brute_force_indices(m, n)
    v = np.empty((len(points), len(indices)))
    for j, idx in enumerate(indices):
        col = np.ones(len(points))
        for a, e in enumerate(idx):
            col *= points[:, a] ** e
        v[:, j] = col
    return v


def test_base_case_degree_zero():
    nodes, tree, specs = assemble_generic(3, 0)
    assert tree.leaf == [0] and tree.sigma == [(3, 0)] and specs == {}
    np.testing.assert_array_equal(nodes.points, [[0.0, 0.0, 0.0]])
    assert nodes.provenance == (eps_label(()),)


def test_base_case_one_dimension():
    nodes, tree, specs = assemble_generic(1, 3)
    assert tree.leaf == [0] and tree.sigma == [(1, 3)] and specs == {}
    expected = [cos(pi / 8), cos(3 * pi / 8), cos(5 * pi / 8), cos(7 * pi / 8)]
    np.testing.assert_allclose(nodes.points[:, 0], expected, atol=1e-15)
    assert nodes.provenance == (eps_label(()),) * 4


def test_base_case_degree_one():
    nodes, tree, specs = assemble_generic(3, 1)
    np.testing.assert_array_equal(
        nodes.points,
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
    )


@pytest.mark.parametrize("m,n", [(3, 0), (1, 3), (5, 1)])
def test_base_cases_are_one_leaf_trees(m, n):
    # the root is the one leaf, labelled "-", and there is no split, so the
    # hyperplane table is empty
    nodes, tree, specs = assemble_generic(m, n)
    assert tree.leaf == [0] and tree.split == [] and tree.leaves == [((m, n), ())]
    assert eps_label(tree.eps[0]) == "-"
    assert nodes.provenance == ("-",) * count_total(m, n) == tree.provenance()
    assert isinstance(specs, HyperplaneTable) and specs == {} and len(specs) == 0


@pytest.mark.parametrize("m,n", [(1, 3), (3, 0), (4, 1)])
def test_base_cases_refuse_lambda_one(m, n):
    # lambda must exceed 1 for every shape, as for one with splits
    for lam in (1, Fraction(1, 2)):
        with pytest.raises(GeometryConfigError, match="lambda must exceed 1"):
            assemble_generic(m, n, lam=lam)


def test_assembly_2_2_pattern():
    nodes, tree, specs = assemble_generic(2, 2)
    s3 = cos(pi / 6)
    np.testing.assert_allclose(
        nodes.points,
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [s3, 2.0],
            [cos(pi / 2), 2.0],
            [-s3, 2.0],
        ],
        atol=1e-15,
    )
    assert nodes.provenance == ("0",) * 3 + ("1",) * 3
    assert leaf_slices(nodes) == {"0": slice(0, 3), "1": slice(3, 6)}


def leaf_block(tree, specs, eps, frame):
    """The node block of the vertex at path eps, at the base of its flat."""
    v = tree.eps.index(tuple(eps))
    base = vertex_base(tree, specs)[tree.flat[v]]
    return leaf_nodes(tree.sigma[v], base[None], frame, kappa=1.0)[0]


def test_leaf_block_line_example():
    # the (1, 3) leaf of the (3, 3) tree sits on the line through
    # (0, -2, 2) in direction x1
    tree = build_tree(3, 3)
    specs = assign_hyperplanes(tree)
    pts = leaf_block(tree, specs, (1, 1), np.eye(3))
    xs = [cos(pi / 8), cos(3 * pi / 8), cos(5 * pi / 8), cos(7 * pi / 8)]
    np.testing.assert_allclose(pts[:, 0], xs, atol=1e-15)
    np.testing.assert_array_equal(pts[:, 1], [-2.0] * 4)
    np.testing.assert_array_equal(pts[:, 2], [2.0] * 4)


def test_leaf_block_flat_example():
    tree = build_tree(3, 3)
    specs = assign_hyperplanes(tree)
    pts = leaf_block(tree, specs, (0, 1, 0), np.eye(3))
    np.testing.assert_array_equal(
        pts, [[0, 0, -4], [1, 0, -4], [0, 1, -4]]
    )


def test_leaf_nodes_rejects_interior_vertex():
    tree = build_tree(3, 3)
    specs = assign_hyperplanes(tree)
    with pytest.raises(ValueError):
        leaf_block(tree, specs, (0,), np.eye(3))


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(0, 7))
def test_counts_and_partition(m, n):
    nodes, tree, specs = assemble_generic(m, n)
    total = count_total(m, n)
    assert len(nodes) == total
    slices = leaf_slices(nodes)
    covered = sorted((s.start, s.stop) for s in slices.values())
    assert covered[0][0] == 0 and covered[-1][1] == total
    for (_, stop), (start, _) in zip(covered, covered[1:]):
        assert stop == start
    by_eps = {eps_label(leaf.eps): leaf for leaf in tree.leaves}
    assert set(slices) == set(by_eps)
    for label, sl in slices.items():
        d, k = by_eps[label].sigma
        assert sl.stop - sl.start == (1 if k == 0 else k + 1 if d == 1 else d + 1)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 4), (6, 6), (2, 12), (8, 3)])
def test_all_points_distinct(m, n):
    nodes, _, _ = assemble_generic(m, n)
    assert pdist(nodes.points).min() > 1e-9


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (4, 3), (3, 4), (2, 8)])
def test_separation_from_split_hyperplanes(m, n):
    """Bit-0 branch nodes stay clear of every hyperplane their path avoids."""
    nodes, tree, specs = assemble_generic(m, n)
    slices = leaf_slices(nodes)
    for leaf in tree.leaves:
        pts = nodes.points[slices["".join(map(str, leaf.eps))]]
        for i, bit in enumerate(leaf.eps):
            if bit == 1:
                continue
            spec = specs[leaf.eps[:i] + (1,)]
            values = pts @ spec.normal - spec.offset
            assert np.abs(values).min() > 1e-9
    # bit-1 branch nodes lie ON their hyperplane
    for leaf in tree.leaves:
        pts = nodes.points[slices["".join(map(str, leaf.eps))]]
        for i, bit in enumerate(leaf.eps):
            if bit == 1:
                spec = specs[leaf.eps[: i + 1]]
                values = pts @ spec.normal - spec.offset
                assert np.abs(values).max() < 1e-12


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (4, 2)])
def test_assembled_nodes_are_unisolvent(m, n):
    nodes, _, _ = assemble_generic(m, n)
    v = brute_vandermonde(nodes.points, m, n)
    sign, logdet = np.linalg.slogdet(v)
    assert sign != 0 and np.isfinite(logdet)


def test_kappa_scales_line_blocks():
    base_nodes, _, _ = assemble_generic(2, 2, kappa=1.0)
    wide_nodes, _, _ = assemble_generic(2, 2, kappa=2.0)
    # degree-1 block is kappa-independent
    np.testing.assert_array_equal(base_nodes.points[:3], wide_nodes.points[:3])
    # line block stretches about its base point (0, 2)
    center = np.array([0.0, 2.0])
    np.testing.assert_allclose(
        wide_nodes.points[3:] - center,
        2.0 * (base_nodes.points[3:] - center),
        atol=1e-15,
    )


def test_mu_translates_points_only():
    mu = np.array([5.0, -1.0, 0.5])
    plain, _, specs0 = assemble_generic(3, 3)
    moved, _, specs1 = assemble_generic(3, 3, mu=mu)
    np.testing.assert_allclose(moved.points, plain.points + mu, atol=0)
    assert moved.provenance == plain.provenance
    # construction geometry reported untranslated
    np.testing.assert_array_equal(specs1[(1,)].base, specs0[(1,)].base)


def test_lambda_changes_offsets():
    nodes, _, specs = assemble_generic(2, 3, lam=Fraction(3))
    assert specs[(1,)].offset == 3.0
    assert specs[(0, 1)].offset == -9.0
    assert len(nodes) == count_total(2, 3)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        assemble_generic(0, 2)
    with pytest.raises(ValueError):
        assemble_generic(2, -1)
    with pytest.raises(ValueError):
        assemble_generic(2, 2, frame=np.eye(3))
    with pytest.raises(ValueError):
        assemble_generic(2, 2, mu=np.zeros(3))


@pytest.mark.parametrize("m,n", [(3, 3), (1, 4), (3, 1), (2, 0)])
def test_complex_geometry_and_points_rejected(m, n):
    # a float conversion would drop the imaginary part, with only a warning
    with pytest.raises(ValueError, match=r"^frame must be real, got dtype complex128$"):
        assemble_generic(m, n, frame=np.eye(m) * (1 + 0j))
    with pytest.raises(ValueError, match=r"^mu must be real, got dtype complex128$"):
        assemble_generic(m, n, mu=np.full(m, 0.5j))
    points = assemble_generic(m, n)[0].points
    with pytest.raises(ValueError, match=r"^points must be real, got dtype complex128$"):
        NodeSet(points + 1j, ("-",) * len(points), m, n)


@pytest.mark.parametrize("m,n", [(3, 3), (1, 4), (3, 1), (2, 0)])
def test_non_finite_geometry_rejected(m, n):
    bad_frame = np.eye(m)
    bad_frame[0, -1] = np.nan
    with pytest.raises(ValueError, match="frame has a non-finite entry"):
        assemble_generic(m, n, frame=bad_frame)
    for value in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="mu has a non-finite entry"):
            assemble_generic(m, n, mu=np.full(m, value))
    for kappa in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            assemble_generic(m, n, kappa=kappa)


@pytest.mark.parametrize("m,n", [(2, 0), (1, 3), (3, 1), (3, 3)])
def test_non_orthonormal_frame_rejected(m, n):
    frame = np.eye(m)
    frame[0, -1] += 0.5
    with pytest.raises(ValueError, match="frame rows are not orthonormal"):
        assemble_generic(m, n, frame=frame)
    # a first row off unit length by 1e-11 passes the 1e-10 orthonormality
    # test but not the tighter one on the line direction
    frame = np.eye(m)
    frame[0, 0] += 1e-11
    with pytest.raises(ValueError, match="line direction must have unit norm"):
        assemble_generic(m, n, frame=frame)
    rotated = np.linalg.qr(np.random.default_rng([3, m]).standard_normal((m, m)))[0]
    assert len(assemble_generic(m, n, frame=rotated)[0]) == count_total(m, n)


def test_separation_failure_message():
    # at lambda = 1 + 1e-6 a node of leaf 10100 comes within 3e-12 of the
    # hyperplane its leaf divides by at the split of vertex 101
    with pytest.raises(GeometryConfigError) as err:
        assemble_generic(4, 4, lam=Fraction(10**6 + 1, 10**6))
    assert str(err.value) == (
        "a node of leaf 10100 lies within 3.000e-12 of the splitting hyperplane "
        "1011; lambda/kappa configuration collides"
    )


def test_separation_reports_first_failing_leaf():
    # leaf 010 (rows 4:7) touches the hyperplane of split 011, and the later
    # leaf 011 (rows 7:10) that of the root split, which comes first in
    # preorder: the first failing leaf in storage order is reported
    nodes, tree, specs = assemble_generic(3, 3)
    points = nodes.points.copy()
    points[5, 1] = specs[(0, 1, 1)].offset
    points[8, 2] = specs[(1,)].offset
    with pytest.raises(GeometryConfigError, match="leaf 010 lies within 0.000e\\+00 of the "
                       "splitting hyperplane 011;"):
        _check_separation(tree, specs, points, nodes.provenance)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 3), (2, 8), (6, 4)])
def test_tree_provenance_follows_leaf_blocks(m, n):
    tree = build_tree(m, n)
    specs = assign_hyperplanes(tree)
    labels = ()
    for leaf in tree.leaves:
        pts = leaf_block(tree, specs, leaf.eps, np.eye(m))
        labels += ("".join(map(str, leaf.eps)),) * pts.shape[0]
    assert tree.provenance() == labels == assemble_generic(m, n)[0].provenance


def test_near_duplicate_nodes_rejected():
    # a tiny kappa squeezes all line nodes into one point
    with pytest.raises(GeometryConfigError):
        assemble_generic(1, 2, kappa=1e-15)


def test_nodeset_validation():
    with pytest.raises(ValueError):
        NodeSet(np.zeros((2, 3)), ["-"] * 2, m=2, n=1)
    with pytest.raises(ValueError):
        NodeSet(np.zeros((2, 2)), ["-"], m=2, n=1)
    with pytest.raises(ValueError):
        leaf_slices(NodeSet(np.zeros((3, 1)), ["0", "1", "0"], m=1, n=2))


@given(st.floats(min_value=-3.0, max_value=3.0), st.integers(2, 4))
def test_rotated_frame_stays_unisolvent(angle, n):
    c, s = np.cos(angle), np.sin(angle)
    frame = np.array([[c, s], [-s, c]])
    nodes, _, _ = assemble_generic(2, n, frame=frame)
    assert len(nodes) == count_total(2, n)
    assert pdist(nodes.points).min() > 1e-9
    sign, logdet = np.linalg.slogdet(brute_vandermonde(nodes.points, 2, n))
    assert sign != 0 and np.isfinite(logdet)


def reference_assembly(m, n, frame, lam, kappa, mu):
    """Points, provenance and hyperplane bases by the rules of tree.py, in a
    plain recursion: a bit-1 child's flat has base parent base +
    float(alpha(eps)) * frame[axis], a bit-0 child keeps its parent's flat,
    a line leaf holds base + t * frame[0] at the Chebyshev parameters t and a
    flat leaf its base and base + frame[a] per active axis a."""
    blocks, labels, bases = [], [], {}

    def visit(d, k, eps, base):
        if eps and eps[-1] == 1:
            base = base + float(alpha(eps, lam)) * frame[d]
            bases[eps] = base
        if d == 1:
            t = kappa * np.cos((2 * np.arange(1, k + 2) - 1) * np.pi / (2 * (k + 1)))
            block = base + t[:, None] * frame[0]
        elif k == 1:
            block = np.array([base] + [base + frame[a] for a in range(d)])
        else:
            visit(d, k - 1, eps + (0,), base)
            visit(d - 1, k, eps + (1,), base)
            return
        blocks.append(block)
        labels.extend(["".join(map(str, eps))] * len(block))

    visit(m, n, (), np.zeros(m))
    points = np.concatenate(blocks)
    return (points if mu is None else points + mu), labels, bases


@pytest.mark.parametrize("m", range(2, 6))
@pytest.mark.parametrize("n", range(2, 6))
def test_assembly_is_bitwise_the_reference_recursion(m, n):
    rotated = np.linalg.qr(np.random.default_rng([17, m]).standard_normal((m, m)))[0]
    mus = (None, np.linspace(-0.5, 0.75, m))
    for frame, kappa, lam, mu in itertools.product(
        (np.eye(m), rotated), (1.0, 0.5), (Fraction(2), Fraction(11, 10)), mus
    ):
        nodes, _, specs = assemble_generic(m, n, frame=frame, lam=lam, kappa=kappa, mu=mu)
        points, labels, bases = reference_assembly(m, n, frame, lam, kappa, mu)
        assert np.array_equal(nodes.points, points)
        assert nodes.provenance == tuple(labels)
        assert set(specs) == set(bases)
        for eps, base in bases.items():
            assert np.array_equal(specs[eps].base, base), eps
