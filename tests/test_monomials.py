"""Monomial counting and ordering against brute-force enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvinterp import monomials
from mvinterp.exceptions import SizingError
from mvinterp.monomials import (
    build_order,
    count_degree,
    count_total,
)

from conftest import brute_force_indices


def test_count_total_examples():
    assert count_total(3, 3) == 20  # C(6,3)
    assert count_total(5, 0) == 1
    assert count_total(1, 7) == 8


def test_count_degree_examples():
    assert count_degree(2, 2) == 3  # x^2, xy, y^2
    assert count_degree(4, 0) == 1
    # brute force: exponent tuples of total degree 2 in 3 variables
    brute = [idx for idx in brute_force_indices(3, 2) if sum(idx) == 2]
    assert count_degree(3, 2) == len(brute) == 6


def test_count_total_rejects_bad_args():
    with pytest.raises(ValueError):
        count_total(0, 3)
    with pytest.raises(ValueError):
        count_total(2, -1)
    with pytest.raises(SizingError):
        count_total(120, 120)


def test_build_order_examples():
    assert build_order(2, 2).table == (
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    )
    assert build_order(1, 2).table == ((0,), (1,), (2,))
    assert build_order(3, 1).table == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


@given(st.integers(1, 6), st.integers(0, 6))
def test_order_matches_brute_force(m, n):
    assert list(build_order(m, n).table) == brute_force_indices(m, n)


@given(st.integers(1, 12), st.integers(0, 12))
def test_degree_counts_sum_to_total(m, n):
    assert sum(count_degree(m, k) for k in range(n + 1)) == count_total(m, n)


@given(st.integers(2, 12), st.integers(1, 12))
def test_pascal_identity(m, n):
    assert count_total(m - 1, n) + count_total(m, n - 1) == count_total(m, n)


@given(st.integers(1, 10), st.integers(0, 10))
def test_counts_match_math_comb(m, n):
    assert count_total(m, n) == math.comb(m + n, m)


def test_blocks_strictly_decrease_lexicographically():
    for m in range(1, 6):
        for n in range(0, 6):
            order = build_order(m, n)
            for k in range(n + 1):
                blk = order.table[order.block(k)]
                for a, b in zip(blk, blk[1:]):
                    assert a > b, f"block {k} not strictly descending at {a} vs {b}"


def test_parent_recursion_consistency(rng):
    # value[i] == x[var[i]] * value[parent[i]] must reproduce direct powers
    order = build_order(4, 5)
    x = rng.uniform(-2, 2, size=4)
    vals = np.empty(len(order))
    vals[0] = 1.0
    for i in range(1, len(order)):
        vals[i] = x[order.var[i]] * vals[order.parent[i]]
    direct = [np.prod(x**np.array(idx)) for idx in order.table]
    np.testing.assert_allclose(vals, direct, rtol=1e-12)


REFERENCE_SHAPES = [(m, n) for m in range(1, 9) for n in range(9)] + [
    (15, 4), (20, 4), (25, 4), (3, 20), (2, 25), (1, 30), (30, 2),
]


@pytest.mark.parametrize("m,n", REFERENCE_SHAPES)
def test_order_matches_a_brute_force_reference(m, n):
    """Every table of the order against one derived from the brute-force
    enumeration and a tuple -> position dict."""
    indices = brute_force_indices(m, n)
    pos = {idx: i for i, idx in enumerate(indices)}
    var, parent = [0], [0]
    for idx in indices[1:]:
        a = next(a for a, e in enumerate(idx) if e)
        var.append(a)
        parent.append(pos[idx[:a] + (idx[a] - 1,) + idx[a + 1 :]])
    below = [idx for idx in indices if sum(idx) < n]
    order = build_order(m, n)
    assert len(order) == len(indices) == count_total(m, n)
    assert order.table == tuple(indices)
    for got, want in ((order.var, var), (order.parent, parent)):
        assert got.dtype == np.intp and got.tolist() == want
    for a in range(m):
        lifted = [pos[idx[:a] + (idx[a] + 1,) + idx[a + 1 :]] for idx in below]
        assert order.lift(a).dtype == np.intp and order.lift(a).tolist() == lifted
    start = 0
    for k in range(n + 1):
        size = sum(1 for idx in indices if sum(idx) == k)
        assert order.block(k) == slice(start, start + size)
        start += size


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 7) for n in range(7)])
def test_head_lists_the_leading_variables_order_inside_the_full_one(m, n):
    """head(p) gives, in (p, n) order, where each monomial in the first p
    variables sits in the (m, n) order, and is kept with the order."""
    order = build_order(m, n)
    table = order.table
    for p in range(1, m + 1):
        head = order.head(p)
        assert head.dtype == np.intp
        assert [table[i] for i in head] == [index + (0,) * (m - p) for index in build_order(p, n).table]
        assert order.head(p) is head


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 8) for n in range(7)])
def test_suffix_and_powers_list_a_restricted_correction_s_monomials(m, n):
    """suffix(d) pairs, per degree, this order's last monomials, those in the
    variables d..m-1, with the same monomials in the (m - d, n) order, in
    its own order; powers(d) lists x_a^j M, a < d, M of degree <= n - j
    among them, as one (d, N(m - d, n - j)) array per j = 1..n.  Both are
    kept with the order."""
    order = build_order(m, n)
    table = order.table
    for d in range(1, m + 1):
        pairs = order.suffix(d)
        assert len(pairs) == n + 1 and order.suffix(d) is pairs
        own = build_order(m - d, n).table if d < m else ((),)
        listed = []
        for k, (here, there) in enumerate(pairs):
            assert here.stop == order.block(k).stop and here.stop - here.start == there.stop - there.start
            assert [table[i] for i in range(here.start, here.stop)] == [(0,) * d + idx for idx in own[there]]
            listed += own[there]
        assert listed == list(own)
        powers = order.powers(d)
        assert len(powers) == n and order.powers(d) is powers
        for j, block in enumerate(powers, 1):
            below = [idx for idx in own if sum(idx) <= n - j]
            assert block.dtype == np.intp and block.shape == (d, len(below))
            for a in range(d):
                lead = tuple(j if b == a else 0 for b in range(d))
                assert [table[i] for i in block[a]] == [lead + idx for idx in below]


def test_an_order_read_for_its_recurrence_holds_no_lift_table():
    """The lift table is built on its first read: an order that gives only
    its var, parent and blocks, as row_kernel reads them, holds none."""
    monomials.build_order.cache_clear()
    order = build_order(9, 4)
    assert order._lifts is None
    order.block(2), order.var, order.parent
    assert order._lifts is None
    assert order.lift(3).base is order._lifts and order._lifts.shape == (9, count_total(9, 3))


@pytest.mark.parametrize("m", range(1, 8))
def test_lower_degree_lifts_are_prefixes_of_the_top_table(m):
    """mul_linear lifts every degree through one order's table: the (m, k)
    order's lift(a) is the first N(m, k - 1) entries of the (m, n) one's."""
    for n in range(1, 7):
        top = build_order(m, n).lifts()
        for k in range(n + 1):
            below = count_total(m, k - 1) if k else 0
            for a in range(m):
                lift = build_order(m, k).lift(a)
                assert lift.dtype == np.intp and lift.tolist() == top[a, :below].tolist()
