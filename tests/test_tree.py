"""Decomposition tree shape, offset formula, and hyperplane placement."""

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import tree_splits
from mvinterp.exceptions import GeometryConfigError
from mvinterp.monomials import count_total
from mvinterp.nodes import NodeSet, assemble_generic, leaf_slices
from mvinterp.tree import (
    Vertex,
    alpha,
    assign_hyperplanes,
    build_tree,
    vertex_base,
)


def test_single_split_2_2():
    tree = build_tree(2, 2)
    assert len(tree.eps) == len(tree.sigma) == 3
    assert tree.sigma[0] == (2, 2)
    assert tree.eps[0] == ()
    left = tree.eps.index((0,))
    right = tree.eps.index((1,))
    assert tree.sigma[left] == (2, 1) and left in tree.leaf
    assert tree.sigma[right] == (1, 2) and right in tree.leaf
    # the root's one split: its bit-0 child owns rows lo:mid, its bit-1 child mid:hi
    assert tree.split == [0]
    assert (tree.lo[left], tree.hi[left]) == (tree.lo[0], tree.mid[0])
    assert (tree.lo[right], tree.hi[right]) == (tree.mid[0], tree.hi[0])
    # left-to-right = bit-0 first
    assert [v.eps for v in tree.leaves] == [(0,), (1,)]
    assert tree.depth == 2
    assert tree.leaf_count == 2


def test_preorder_3_3():
    tree = build_tree(3, 3)
    assert tree.eps == [
        (),
        (0,),
        (0, 0),
        (0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (1,),
        (1, 0),
        (1, 0, 0),
        (1, 0, 1),
        (1, 1),
    ]
    assert [(v.eps, v.sigma) for v in tree.leaves] == [
        ((0, 0), (3, 1)),
        ((0, 1, 0), (2, 1)),
        ((0, 1, 1), (1, 2)),
        ((1, 0, 0), (2, 1)),
        ((1, 0, 1), (1, 2)),
        ((1, 1), (1, 3)),
    ]
    assert tree.sigma[tree.eps.index((0, 1))] == (2, 2)
    assert tree.depth == 4
    assert tree.leaf_count == 6


@pytest.mark.parametrize("m", range(2, 11))
@pytest.mark.parametrize("n", range(2, 11))
def test_shape_closed_forms(m, n):
    tree = build_tree(m, n)
    assert tree.leaf_count == comb(m + n - 2, m - 1)
    assert tree.depth == m + n - 2
    assert max(map(len, tree.eps)) == m + n - 3
    for leaf in tree.leaves:
        d, k = leaf.sigma
        # splitting stops at the first 1, so (1, 1) never appears
        assert (d == 1) != (k == 1)
    # leaf node budget: line leaves hold k+1 nodes, degree-1 leaves d+1
    budget = sum(
        (leaf.sigma[1] + 1) if leaf.sigma[0] == 1 else (leaf.sigma[0] + 1)
        for leaf in tree.leaves
    )
    assert budget == count_total(m, n)
    # leaves, depth and leaf_count come from the leaf column, the split and
    # leaf columns partition the vertices, and a path's bits give its sigma
    assert tree.leaves == [Vertex(sigma, eps) for sigma, eps in zip(tree.sigma, tree.eps) if 1 in sigma]
    assert len(tree.leaves) == tree.leaf_count
    assert sorted(tree.split + tree.leaf) == list(range(len(tree.eps)))
    position = {eps: v for v, eps in enumerate(tree.eps)}
    assert len(position) == len(tree.eps)  # a path names one vertex
    for sigma, eps in zip(tree.sigma, tree.eps):
        assert sigma == (m - sum(eps), n - len(eps) + sum(eps))
    for v, mid in zip(tree.split, tree.mid):
        d, k = tree.sigma[v]
        zero, one = position[tree.eps[v] + (0,)], position[tree.eps[v] + (1,)]
        assert zero == v + 1 and tree.sigma[zero] == (d, k - 1)
        assert tree.sigma[one] == (d - 1, k)
        assert (tree.lo[zero], tree.hi[zero], tree.lo[one], tree.hi[one]) == (tree.lo[v], mid, mid, tree.hi[v])


def test_splits_3_3():
    # leaf rows: 00 0:4, 010 4:7, 011 7:10, 100 10:13, 101 13:16, 11 16:20
    assert tree_splits(build_tree(3, 3)) == [
        ((1,), 2, 0, 10, 20),
        ((0, 1), 2, 0, 4, 10),
        ((0, 1, 1), 1, 4, 7, 10),
        ((1, 1), 1, 10, 16, 20),
        ((1, 0, 1), 1, 10, 13, 16),
    ]


@pytest.mark.parametrize("m", range(2, 11))
@pytest.mark.parametrize("n", range(2, 11))
def test_splits_address_subtree_rows(m, n):
    tree = build_tree(m, n)
    # leaf rows from the leaf node budgets, laid out left to right
    labels = []
    for leaf in tree.leaves:
        d, k = leaf.sigma
        labels += ["".join(map(str, leaf.eps))] * (k + 1 if d == 1 else d + 1)
    slices = leaf_slices(NodeSet(np.broadcast_to(0.0, (len(labels), m)), labels, m, n))
    # left to right is lexicographic, so the leaves below a path form one run
    names = list(slices)
    assert names == sorted(names)
    starts = [block.start for block in slices.values()] + [len(labels)]

    def rows(path):
        """First and end row of the leaves whose path starts with path."""
        return starts[bisect_left(names, path)], starts[bisect_left(names, path + "2")]

    splits = tree_splits(tree)
    paths = ["".join(map(str, key[:-1])) for key, *_ in splits]
    # one split per internal vertex, in preorder, keyed by its bit-1 child
    assert len(set(paths)) == len(splits) == tree.leaf_count - 1
    assert paths == sorted(paths)
    for (key, axis, lo, mid, hi), path in zip(splits, paths):
        assert key[-1] == 1
        d, k = m - path.count("1"), n - path.count("0")
        assert d > 1 and k > 1 and axis == d - 1
        # the two ranges partition the rows of the vertex's subtree
        assert rows(path) == (lo, hi) and lo < mid < hi
        assert mid - lo == count_total(d, k - 1) and hi - mid == count_total(d - 1, k)
        # a leaf is in the bit-0 range exactly when its path has a 0 here
        assert rows(path + "0") == (lo, mid) and rows(path + "1") == (mid, hi)


def test_leaf_sequence_reads_like_a_list():
    tree = build_tree(4, 3)
    leaves = [Vertex(sigma, eps) for sigma, eps in zip(tree.sigma, tree.eps) if 1 in sigma]
    assert len(tree.leaves) == len(leaves) == 10
    assert tree.leaves[0] == leaves[0] and tree.leaves[-1] == leaves[-1]
    assert tree.leaves[2:7:2] == leaves[2:7:2]
    assert list(reversed(tree.leaves)) == leaves[::-1]
    assert leaves[3] in tree.leaves
    assert tree.leaves != leaves[:-1]
    assert tree.leaves == tree.leaves  # read off the table, walked once per tree


def test_vertex_rejects_paths_outside_the_tree():
    tree = build_tree(3, 3)
    for eps in [(0, 0, 0), (1, 1, 0), (2,), (0, 1, 1, 1)]:
        assert eps not in tree.eps
    # the root's bit-1 child starts, and the bit-0 child of 01 ends, at its split's mid
    assert tree.lo[tree.eps.index((1,))] == tree.mid[tree.split.index(0)]
    split = tree.split.index(tree.eps.index((0, 1)))
    assert tree.hi[tree.eps.index((0, 1, 0))] == tree.mid[split]
    # a leaf splits no further
    assert tree.eps.index((0, 0)) in tree.leaf and tree.eps.index((0, 0)) not in tree.split


def test_build_tree_serves_base_cases_as_one_leaf():
    # a base case is a one-vertex tree: its root is its one leaf, labelled
    # "-", it splits nothing, and its hyperplane table is empty
    for m, n in [(1, 5), (5, 1), (2, 0)]:
        tree = build_tree(m, n)
        assert (tree.sigma, tree.eps, tree.leaf, tree.split) == ([(m, n)], [()], [0], [])
        assert (tree.lo, tree.hi, tree.flat, tree.cross) == ([0], [count_total(m, n)], [-1], [-1])
        assert tree.leaves == [Vertex((m, n), ())] and tree.depth == tree.leaf_count == 1
        assert tree.provenance() == ("-",) * count_total(m, n)
        table = assign_hyperplanes(tree)
        assert table == {} and len(table) == 0 and table.offset.shape == (0,)
        np.testing.assert_array_equal(vertex_base(tree, table), np.zeros((1, m)))
    for m, n in [(0, 2), (2, -1)]:
        with pytest.raises(ValueError, match="tree needs m >= 1 and n >= 0"):
            build_tree(m, n)


def test_alpha_examples():
    assert alpha((1,)) == 2
    assert alpha((0, 1)) == -4
    assert alpha((1, 1)) == -2
    assert alpha((0, 1, 1)) == 4
    # the lambda^1 term stays in the sum even when later bits dominate:
    # 2 - 0 + 8 = 10
    assert alpha((1, 0, 1)) == 10
    assert alpha((1, 1), 3) == -6
    assert alpha(()) == 0
    assert alpha((0, 0, 0)) == 0


def test_alpha_exact_rational():
    lam = Fraction(5, 2)
    value = alpha((1, 0, 1), lam)
    assert isinstance(value, Fraction)
    assert value == lam + lam**3 == Fraction(145, 8)


def test_alpha_rejects_small_lambda():
    for lam in [1, Fraction(1, 2), 0, -2]:
        with pytest.raises(GeometryConfigError):
            alpha((1,), lam)


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(5, 2), Fraction(3)])
@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (2, 6), (6, 2), (4, 4), (5, 3)])
def test_alpha_injective_per_length(m, n, lam):
    """Within each path length, distinct paths get distinct offsets."""
    tree = build_tree(m, n)
    by_len = {}
    for eps in tree.eps:
        by_len.setdefault(len(eps), []).append(eps)
    for group in by_len.values():
        values = [alpha(eps, lam) for eps in group]
        assert len(set(values)) == len(values)


@pytest.mark.parametrize(
    "lam", [Fraction(2), Fraction(11, 10), Fraction(3), Fraction(1001, 1000)]
)
@pytest.mark.parametrize("m,n", [(3, 3), (15, 4), (8, 6), (3, 12), (2, 9), (9, 2)])
def test_assigned_offsets_match_alpha_formula(m, n, lam):
    """The incremental offsets in assign_hyperplanes equal alpha() exactly."""
    tree = build_tree(m, n)
    specs = assign_hyperplanes(tree, lam=lam)
    assert specs
    for eps, spec in specs.items():
        assert spec.alpha_exact == alpha(eps, lam), eps


def test_hyperplanes_2_2():
    tree = build_tree(2, 2)
    specs = assign_hyperplanes(tree)
    assert set(specs) == {(1,)}
    s = specs[(1,)]
    assert s.axis == 1
    np.testing.assert_array_equal(s.normal, [0.0, 1.0])
    np.testing.assert_array_equal(s.base, [0.0, 2.0])
    assert s.offset == 2.0
    assert s.alpha_exact == Fraction(2)


def test_hyperplanes_3_3_golden():
    tree = build_tree(3, 3)
    specs = assign_hyperplanes(tree)
    expected = {
        (1,): (2, [0.0, 0.0, 2.0]),
        (0, 1): (2, [0.0, 0.0, -4.0]),
        (1, 1): (1, [0.0, -2.0, 2.0]),
        (0, 1, 1): (1, [0.0, 4.0, -4.0]),
        (1, 0, 1): (1, [0.0, 10.0, 2.0]),
    }
    assert set(specs) == set(expected)
    for eps, (axis, base) in expected.items():
        s = specs[eps]
        assert s.axis == axis, eps
        np.testing.assert_array_equal(s.base, base)
        unit = np.zeros(3)
        unit[axis] = 1.0
        np.testing.assert_array_equal(s.normal, unit)
        assert s.offset == base[axis]


def test_bit0_children_inherit_base():
    tree = build_tree(3, 3)
    bases = vertex_base(tree, assign_hyperplanes(tree))
    # row tree.flat[v] is the base of vertex v, the last row the origin
    assert bases.shape == (len(tree.key) + 1, 3)
    np.testing.assert_array_equal(bases[tree.flat[tree.eps.index((1, 0))]], [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(bases[tree.flat[tree.eps.index((0, 0))]], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(bases[tree.flat[tree.eps.index((1, 0, 1))]], [0.0, 10.0, 2.0])


def test_custom_frame_rotates_geometry():
    c, s = np.cos(0.3), np.sin(0.3)
    frame = np.array([[c, s], [-s, c]])
    tree = build_tree(2, 2)
    specs = assign_hyperplanes(tree, frame=frame)
    spec = specs[(1,)]
    np.testing.assert_allclose(spec.normal, frame[1], atol=0)
    np.testing.assert_allclose(spec.base, 2.0 * frame[1], atol=1e-15)
    np.testing.assert_allclose(spec.offset, 2.0, atol=1e-15)


@pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (4, 4), (5, 3), (2, 8)])
def test_parallel_hyperplanes_keep_gap(m, n):
    """Same-axis hyperplanes in the same containing flat sit >= 2 apart."""
    tree = build_tree(m, n)
    specs = list(assign_hyperplanes(tree).values())
    for a, b in itertools.combinations(specs, 2):
        if a.axis != b.axis:
            continue
        d = a.base - b.base
        off_axis = d - (d @ a.normal) * a.normal
        if np.linalg.norm(off_axis) < 1e-12:
            assert abs(a.offset - b.offset) >= 2.0


def test_nearly_coincident_hyperplanes_rejected():
    # at lambda = 1 + 1e-12 two hyperplanes splitting the same flat of the
    # (4, 4) tree sit 2e-12 apart along axis 4; assembly rejects the node
    # set at the first failing leaf, whose unit offset along axis 4 lies
    # lambda - 1 from the root split's hyperplane
    with pytest.raises(GeometryConfigError) as err:
        assemble_generic(4, 4, lam=Fraction(10**12 + 1, 10**12))
    assert str(err.value) == (
        "a node of leaf 000 lies within 1.000e-12 of the splitting hyperplane 1; "
        "lambda/kappa configuration collides"
    )


def test_lambda_validation_in_assignment():
    tree = build_tree(2, 3)
    with pytest.raises(GeometryConfigError):
        assign_hyperplanes(tree, lam=1)


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=10),
    st.fractions(min_value=Fraction(9, 8), max_value=Fraction(4), max_denominator=8),
)
def test_alpha_magnitude_bound(bits, lam):
    """|alpha| is at most the full alternating-free sum of lambda powers."""
    value = alpha(tuple(bits), lam)
    bound = sum(lam**i for i in range(1, len(bits) + 1))
    assert abs(value) <= bound
    # appending a zero bit never changes the value
    assert alpha(tuple(bits) + (0,), lam) == value
