"""The hyperplane table against a plain reference that places one split at a
time, with an exact Fraction sum and a base array of its own per split.

The table's axis, base, offset and alpha must equal the reference's byte
for byte, and a table read against another tree must be refused.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvinterp.nodes import _check_separation, assemble_generic
from mvinterp.tree import alpha, assign_hyperplanes, build_tree, vertex_base
from mvinterp.vandermonde import genericity_check

LAMBDAS = [Fraction(2), Fraction(11, 10), Fraction(3), Fraction(1001, 1000), Fraction(5, 2)]


def reference_hyperplanes(tree, frame, lam):
    """(axis, normal, base, offset, alpha) of every split in preorder: the
    normal frame[axis] at the split's axis, alpha the outer flat's plus one
    signed power of lambda, the base the outer flat's plus alpha * normal."""
    lam = Fraction(lam)
    rows = []
    for vertex, key in zip(tree.split, tree.key):
        outer, axis = tree.flat[vertex], tree.sigma[vertex][0] - 1
        base, a = (rows[outer][2], rows[outer][4]) if outer >= 0 else (np.zeros(tree.m), Fraction(0))
        a = a + (lam ** len(key) if len(key) % 2 else -(lam ** len(key)))
        normal = frame[axis]
        base = base + float(a) * normal
        rows.append((axis, normal, base, float(normal @ base), a))
    return rows


def rotated(m, seed=31):
    return np.linalg.qr(np.random.default_rng([seed, m]).standard_normal((m, m)))[0]


def assert_table_is_reference(m, n, frame, lam):
    tree = build_tree(m, n)
    table = assign_hyperplanes(tree, frame=frame, lam=lam)
    rows = reference_hyperplanes(tree, np.array(frame, dtype=float), lam)
    axis, normal, base, offset, exact = zip(*rows)
    assert table.axis.tolist() == list(axis)
    assert table.base.tobytes() == np.array([*base, np.zeros(m)]).tobytes()
    assert table.offset.tobytes() == np.array(offset).tobytes()
    q = Fraction(lam).denominator
    assert [Fraction(a, q ** len(key)) for a, key in zip(table.numerator, tree.key)] == list(exact)
    assert table.frame[table.axis].tobytes() == np.array(normal).tobytes()
    # the rows looked up by key read the same columns
    for split in (0, len(rows) // 2, len(rows) - 1):
        spec = table[tree.key[split]]
        assert spec.eps == tree.key[split]
        assert (spec.axis, spec.offset, spec.alpha_exact) == (axis[split], offset[split], exact[split])
        assert spec.base.tobytes() == base[split].tobytes() and spec.normal.tobytes() == normal[split].tobytes()
    return table


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("m,n", [(15, 4), (8, 6), (3, 12), (2, 25)])
def test_table_is_bitwise_the_reference(m, n, lam, rotate):
    assert_table_is_reference(m, n, rotated(m) if rotate else np.eye(m), lam)


@given(
    st.integers(2, 5),
    st.integers(2, 5),
    st.fractions(min_value=1, max_value=4, max_denominator=16).filter(lambda lam: lam > 1),
    st.integers(0, 2**32 - 1),
)
def test_table_is_the_reference_at_any_geometry(m, n, lam, seed):
    table = assert_table_is_reference(m, n, rotated(m, seed), lam)
    for key, spec in table.items():
        assert spec.alpha_exact == alpha(key, lam), key


def test_table_reads_as_a_mapping_of_its_keys():
    tree = build_tree(3, 4)
    table = assign_hyperplanes(tree)
    assert list(table) == tree.key and len(table) == len(tree.key)
    assert (0, 1) in table and (0, 0) not in table and (1, 0) not in table
    with pytest.raises(KeyError):
        table[(0, 0)]
    # vertex_base hands back the table's read-only base column, no copy
    assert vertex_base(tree, table) is table.base
    assert not table.base.flags.writeable and not table.frame.flags.writeable


def test_a_table_of_another_tree_is_refused():
    nodes, tree, _ = assemble_generic(3, 3)
    other = assign_hyperplanes(build_tree(3, 4))
    message = r"these hyperplanes are the \(3, 4\) tree's, not the \(3, 3\) tree's"
    for check in (
        lambda: genericity_check(nodes, 3, 3, tree=tree, hyperplanes=other),
        lambda: genericity_check(nodes, 3, 3, hyperplanes=other),
        lambda: _check_separation(tree, other, nodes.points, nodes.provenance),
        lambda: vertex_base(tree, other),
    ):
        with pytest.raises(ValueError, match=message):
            check()
    # (2, 3) and (3, 2) trees have as many splits, so a read by position would pass
    nodes, tree, _ = assemble_generic(2, 3)
    swapped = assign_hyperplanes(build_tree(3, 2))
    assert len(swapped) == len(tree.key)
    with pytest.raises(ValueError, match=r"are the \(3, 2\) tree's, not the \(2, 3\) tree's"):
        genericity_check(nodes, 2, 3, tree=tree, hyperplanes=swapped)
    with pytest.raises(ValueError, match=r"are the \(3, 2\) tree's"):
        _check_separation(tree, swapped, nodes.points, nodes.provenance)
