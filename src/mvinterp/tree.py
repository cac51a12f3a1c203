"""The sub-problem tree, its one table, and its splitting hyperplanes.

A problem of dimension m >= 1 and degree n >= 0 splits into a bit-1 child
(m-1, n), whose nodes will live ON a fresh hyperplane, and a bit-0 child
(m, n-1), whose nodes stay off it.  Splitting stops as soon as the dimension
reaches 1 or the degree 1 or less, so every leaf is a line problem, a
degree-1 problem or, at (m, 0) only, the degree-0 problem; a problem that is
already one of these is a one-vertex tree whose root is its leaf.
A vertex is its path: the bit string eps (root: empty) names it, and its
sigma = (dimension, degree) follows from the bits.

Hyperplane placement follows the offset rule
    alpha(eps) = sum_i (-1)^(i-1) * eps_i * lambda^i   (exact rationals),
evaluated at every vertex whose eps ends in 1: that vertex's hyperplane has
normal frame[sigma1] (the axis just dropped) and base
b(parent) + alpha(eps) * normal; bit-0 children inherit the parent base
unchanged.  With the default lambda = 2 all offsets are distinct even
integers, which keeps parallel hyperplanes at least 2 apart and every
off-hyperplane node at distance >= 1 from any hyperplane it must avoid.

The tree depends on (m, n) only.  Building it walks it once into one
preorder table (see DecompTree), which everything else reads; its
hyperplanes, fixed by it, the frame and lambda, form a second table with one
row per split (see HyperplaneTable), alpha kept exact as integers.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .exceptions import GeometryConfigError
from .monomials import count_total

__all__ = [
    "Vertex",
    "DecompTree",
    "HyperplaneSpec",
    "HyperplaneTable",
    "build_tree",
    "alpha",
    "assign_hyperplanes",
    "vertex_base",
    "eps_label",
]


# a path's bits, the ints 0 and 1, as the characters of its label
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def eps_label(eps) -> str:
    """The bit string of a path, "-" for the empty root path."""
    return bytes(tuple(eps)).translate(_BIT_CHARS).decode() or "-"


class Vertex(NamedTuple):
    """One tree vertex: sigma = (dimension, degree), eps = path bits.

    The path names the vertex: its children are eps + (0,) and eps + (1,),
    its parent is eps[:-1] and its depth is len(eps).  It is a leaf when
    its dimension is 1 or its degree at most 1.
    """

    sigma: tuple
    eps: tuple


def _vertex_list(sigma, eps) -> list:
    """Vertex(s, e) for the pairs of sigma and eps, each made by tuple.__new__
    without a Python-level call, as a large tree has tens of thousands.

    The lists are not kept: a Vertex is a tuple subclass, which the garbage
    collector never stops tracking, so a kept list of a large tree's
    vertices would make its full collections rescan them all.
    """
    return list(map(tuple.__new__, repeat(Vertex), zip(sigma, eps)))


def _read_only(values) -> np.ndarray:
    """The values as an array that readers share, so none may write it."""
    out = np.array(values)
    out.flags.writeable = False
    return out


class DecompTree:
    """Binary decomposition tree for dimension m >= 1 and degree n >= 0.

    Building the tree walks it once, in preorder with the bit-0 child
    first, into one table of columns (lists):

    - per vertex: ``sigma``, ``eps``, the rows ``lo:hi`` its subtree's nodes
      take in the assembled node set, and two splits: ``flat``, the one
      whose hyperplane the vertex lives on (the split whose bit-1 child is
      its nearest ancestor-or-self ending in 1), and ``cross``, the last
      one whose hyperplane its rows divide by (the split whose bit-0 child
      is its nearest ancestor-or-self ending in 0); -1 where there is none;
    - per split, in preorder: ``split``, its vertex; ``key``, the path of
      its bit-1 child, which names its hyperplane; and ``mid``;
    - per leaf, left to right: ``leaf``, its vertex.

    Array readers share what they gather, made once on first read and
    read-only: ``leaf_lo``, ``leaf_flat`` and ``split_lo``, the lo or flat
    column at each leaf or split, and ``leaf_groups`` and ``split_groups``,
    the leaves and splits grouped by sigma.

    Nodes are stored subtree by subtree, bit-0 child first, so a split of
    sigma (d, k) owns rows lo:hi: N(d, k-1) rows lo:mid of its bit-0 child,
    which divide by its hyperplane, and N(d-1, k) rows mid:hi of its bit-1
    child, which lie on it.
    """

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        shapes = [[(d, k) for k in range(n + 1)] for d in range(m + 1)]  # shared sigma tuples
        sigma, paths, starts, ends, flats, crosses = [], [], [], [], [], []
        vertices, keys, mids, leaves = [], [], [], []
        # each popped vertex is followed down its bit-0 chain to a leaf, the
        # bit-1 children pushed on the way, deepest on top
        stack = [(m, n, (), 0, count_total(m, n), -1, -1)]
        while stack:
            d, k, eps, lo, hi, flat, cross = stack.pop()
            while True:
                vertex = len(sigma)
                sigma.append(shapes[d][k])
                paths.append(eps)
                starts.append(lo)
                ends.append(hi)
                flats.append(flat)
                crosses.append(cross)
                if d == 1 or k <= 1:
                    leaves.append(vertex)
                    break
                # the bit-0 child's N(d, k-1) rows are N(d, k) * k / (d + k)
                split, key, mid = len(keys), eps + (1,), lo + (hi - lo) * k // (d + k)
                vertices.append(vertex)
                keys.append(key)
                mids.append(mid)
                stack.append((d - 1, k, key, mid, hi, split, cross))
                k, eps, hi, cross = k - 1, eps + (0,), mid, split
        self.sigma, self.eps, self.lo, self.hi = sigma, paths, starts, ends
        self.flat, self.cross = flats, crosses
        self.split, self.key, self.mid, self.leaf = vertices, keys, mids, leaves

    @property
    def vertices(self) -> list:
        """Every vertex in preorder, bit-0 child first, as a new list."""
        return _vertex_list(self.sigma, self.eps)

    def _by_sigma(self, column) -> dict:
        """sigma -> positions i in a column of vertices whose column[i] has it, in order of sigma."""
        groups: dict = {}
        for i, vertex in enumerate(column):
            groups.setdefault(self.sigma[vertex], []).append(i)
        return {sigma: _read_only(groups[sigma]) for sigma in sorted(groups)}

    @cached_property
    def leaf_groups(self) -> dict:
        """The leaves by sigma, as positions in ``leaf``; a group's row blocks are equally long."""
        return self._by_sigma(self.leaf)

    @cached_property
    def split_groups(self) -> dict:
        """The splits by sigma, as positions in ``split``; a group's splits share an axis."""
        return self._by_sigma(self.split)

    @cached_property
    def leaf_lo(self) -> np.ndarray:
        return _read_only(list(map(self.lo.__getitem__, self.leaf)))

    @cached_property
    def leaf_flat(self) -> np.ndarray:
        return _read_only(list(map(self.flat.__getitem__, self.leaf)))

    @cached_property
    def split_lo(self) -> np.ndarray:
        return _read_only(list(map(self.lo.__getitem__, self.split)))

    @property
    def leaves(self) -> list:
        """Leaves in left-to-right order (bit-0 child first), as a new list."""
        return _vertex_list(map(self.sigma.__getitem__, self.leaf), map(self.eps.__getitem__, self.leaf))

    def provenance(self) -> tuple:
        """The label of the leaf that owns each node row, in storage order."""
        return tuple(chain.from_iterable(repeat(eps_label(self.eps[v]), self.hi[v] - self.lo[v]) for v in self.leaf))

    @property
    def leaf_count(self) -> int:
        return len(self.leaf)

    @property
    def depth(self) -> int:
        """Number of levels: 1 + max vertex depth, which equals m + n - 2
        for m, n >= 2, and 1 for a one-vertex tree.

        The deepest vertex sits at depth (m-1)+(n-1)-1 = m+n-3 because the
        split rule never produces a (1,1) leaf: whichever of dimension or
        degree hits 1 first ends the path one edge early.  Counting levels
        instead of edges restores the closed form m+n-2.
        """
        return 1 + max(map(len, self.eps))


def build_tree(m: int, n: int) -> DecompTree:
    """The decomposition tree for m >= 1 and n >= 0, walked once into its table."""
    if m < 1 or n < 0:
        raise ValueError(f"tree needs m >= 1 and n >= 0, got ({m}, {n})")
    return DecompTree(m, n)


def alpha(eps, lam=Fraction(2)) -> Fraction:
    """Signed offset sum_{i=1..|eps|} (-1)^(i-1) eps_i lam^i, exact rational."""
    lam = Fraction(lam)
    if not lam > 1:
        raise GeometryConfigError(f"lambda must exceed 1, got {lam}")
    out = Fraction(0)
    power = Fraction(1)
    for i, bit in enumerate(eps, start=1):
        power *= lam
        if bit:
            out += power if i % 2 == 1 else -power
    return out


class HyperplaneSpec(NamedTuple):
    """A row of a HyperplaneTable, the hyperplane {x : <normal, x - base> = 0}
    of split eps: axis is its 0-based frame row, offset <normal, base>, and
    alpha_exact the rational offset along it from the inherited base."""

    eps: tuple
    axis: int
    normal: np.ndarray
    base: np.ndarray
    offset: float
    alpha_exact: Fraction


class HyperplaneTable(Mapping):
    """The splitting hyperplanes of a tree, placed as above, as columns in
    the tree's split order: ``axis``, whose row of ``frame``, a read-only
    copy, is the normal; ``base``, (splits + 1, m) and read-only, with the
    origin as the last row, so ``base[tree.flat[v]]`` is the base of vertex
    v's flat; ``offset``, <normal, base>; and ``numerator``, alpha(eps) *
    q**len(eps) as an int for lambda = p/q.  A split lives on the flat of a
    split whose axis is one higher, so bases are filled one axis at a time.
    It also reads as a Mapping from a split's key to a HyperplaneSpec; a
    one-vertex tree's table is empty, and equals {}.
    """

    def __init__(self, tree: DecompTree, frame, lam: Fraction):
        m, p, q = tree.m, lam.numerator, lam.denominator
        self.m, self.n, self.key, self.q = m, tree.n, tree.key, q
        self.frame = frame = np.array(np.eye(m) if frame is None else frame, dtype=float)
        frame.flags.writeable = False
        flat = np.array([tree.flat[v] for v in tree.split], dtype=np.intp)  # -1 reads the origin row
        self.axis = axis = np.array([tree.sigma[v][0] - 1 for v in tree.split], dtype=np.intp)
        # alpha(eps) = alpha(outer eps) + (-1)^(d-1) lam^d at d = |eps|, over q^d,
        # in Python ints, as int64 would overflow at lambda 1001/1000
        self.numerator = numerator = []
        for outer, key in zip(flat.tolist(), tree.key):
            d = len(key)
            step = p**d if d % 2 else -(p**d)
            numerator.append(step if outer < 0 else numerator[outer] * q ** (d - len(tree.key[outer])) + step)
        # correctly rounded true divisions: the floats of the Fractions they equal
        alpha = np.array([a / q ** len(key) for a, key in zip(numerator, tree.key)])
        self.base = base = np.zeros((len(axis) + 1, m))
        self.offset = offset = np.empty(len(axis))
        for a in range(m - 1, 0, -1):
            at = np.flatnonzero(axis == a)
            base[at] = base[flat[at]] + alpha[at, None] * frame[a]
            offset[at] = [frame[a] @ b for b in base[at]]  # a dot per row: batched, the sums may round apart
        base.flags.writeable = False

    def for_tree(self, tree) -> HyperplaneTable:
        """This table, once seen to be one of a tree of tree's shape (read
        by position, another tree's table would misplace every plane)."""
        if (self.m, self.n) != (tree.m, tree.n):
            raise ValueError(f"these hyperplanes are the ({self.m}, {self.n}) tree's, not the ({tree.m}, {tree.n}) tree's")
        return self

    @cached_property
    def _position(self) -> dict:
        return dict(zip(self.key, range(len(self.key))))

    def __getitem__(self, eps) -> HyperplaneSpec:
        split = self._position[eps]
        key, axis = self.key[split], int(self.axis[split])
        alpha_exact = Fraction(self.numerator[split], self.q ** len(key))
        return HyperplaneSpec(key, axis, self.frame[axis], self.base[split], float(self.offset[split]), alpha_exact)

    def __iter__(self):
        return iter(self.key)

    def __len__(self) -> int:
        return len(self.key)


def assign_hyperplanes(tree: DecompTree, frame=None, lam=Fraction(2)) -> HyperplaneTable:
    """The HyperplaneTable of a tree, a frame (default the identity) and a
    lambda, which must exceed 1.  The hyperplanes splitting one flat stay
    apart because assemble_generic's geometry check does: the nodes on a
    later one are dividing rows of an earlier one, at exactly the offset gap.
    """
    lam = Fraction(lam)
    if not lam > 1:
        raise GeometryConfigError(f"lambda must exceed 1, got {lam}")
    return HyperplaneTable(tree, frame, lam)


def vertex_base(tree: DecompTree, hyperplanes: HyperplaneTable) -> np.ndarray:
    """The base point of every flat, read-only: row s that of split s's
    hyperplane and the last row the origin, so row tree.flat[v] is the base
    of vertex v."""
    return hyperplanes.for_tree(tree).base
