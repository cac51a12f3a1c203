"""The sub-problem tree and its splitting hyperplanes.

A problem of dimension m and degree n splits into a bit-1 child (m-1, n),
whose nodes will live ON a fresh hyperplane, and a bit-0 child (m, n-1),
whose nodes stay off it.  Splitting stops as soon as the dimension or the
degree reaches 1, so every leaf is a line problem or a degree-1 problem.
Each vertex is addressed by its bit string eps (root: empty).

Hyperplane placement follows the offset rule
    alpha(eps) = sum_i (-1)^(i-1) * eps_i * lambda^i   (exact rationals),
evaluated at every vertex whose eps ends in 1: that vertex's hyperplane has
normal frame[sigma1] (the axis just dropped) and base
b(parent) + alpha(eps) * normal; bit-0 children inherit the parent base
unchanged.  With the default lambda = 2 all offsets are distinct even
integers, which keeps parallel hyperplanes at least 2 apart and every
off-hyperplane node at distance >= 1 from any hyperplane it must avoid.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import repeat
from math import comb
from typing import NamedTuple

import numpy as np

from .exceptions import GeometryConfigError
from .monomials import count_total
from .polynomial import MultiPoly

__all__ = [
    "Vertex",
    "DecompTree",
    "LeafSequence",
    "HyperplaneSpec",
    "build_tree",
    "alpha",
    "assign_hyperplanes",
    "vertex_base",
    "dump_tree",
    "eps_label",
]


def eps_label(eps) -> str:
    """The bit string of a path, "-" for the empty root path."""
    return "".join(map(str, eps)) or "-"


class Vertex(NamedTuple):
    """One tree vertex: sigma = (dimension, degree), eps = path bits.

    index is the preorder position; parent, bit0 and bit1 are preorder
    indices (None at the root, and for both children of a leaf).
    """

    index: int
    sigma: tuple
    eps: tuple
    parent: int | None
    bit0: int | None = None
    bit1: int | None = None

    @property
    def depth(self) -> int:
        return len(self.eps)

    @property
    def is_leaf(self) -> bool:
        return self.bit0 is None


# Vertex from a tuple of all six fields, without a Python-level call
_new_vertex = partial(tuple.__new__, Vertex)


class LeafSequence(Sequence):
    """The leaves of a tree in left-to-right order, as a read-only sequence.

    The leaf walk stores the fields of every leaf as columns (index, sigma,
    eps, parent), and a Vertex is made as each item is read.  The columns
    hold only ints and tuples of ints, which the garbage collector stops
    tracking, so the leaves of a large tree (48620 at m = n = 10) add no
    objects for its full collections to rescan.
    """

    def __init__(self, index: list, sigma: list, eps: list, parent: list):
        self._columns = (index, sigma, eps, parent)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return Vertex(*(column[i] for column in self._columns))

    def __iter__(self):
        return map(_new_vertex, zip(*self._columns, repeat(None), repeat(None)))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


class DecompTree:
    """Binary decomposition tree for dimension m >= 2 and degree n >= 2.

    The tree is fixed by (m, n) and stored implicitly.  Vertices are
    numbered in preorder, bit-0 (left) child first: a (d, k) vertex at index
    i has its bit-0 child at i + 1 and its bit-1 child at i + 1 + size(d, k-1),
    where size(d, k) = 2 C(d+k-2, d-1) - 1 counts the vertices of a (d, k)
    subtree.  Vertex objects are built from that arithmetic when asked for:
    ``root``, ``child`` and ``vertex`` make one vertex each, ``leaves`` is
    one walk (kept) that makes no internal vertex, and the full preorder
    ``vertices`` list is built on first use only.
    """

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        # _bit1_step[d][k] = 1 + size(d, k-1): preorder distance to the bit-1 child
        self._bit1_step = [
            [2 * comb(d + k - 3, d - 1) if d > 1 and k > 1 else 0 for k in range(n + 1)]
            for d in range(m + 1)
        ]

    def _make(self, index: int, sigma: tuple, eps: tuple, parent) -> Vertex:
        d, k = sigma
        if d == 1 or k == 1:
            return Vertex(index, sigma, eps, parent)
        return Vertex(index, sigma, eps, parent, index + 1, index + self._bit1_step[d][k])

    @property
    def root(self) -> Vertex:
        return self._make(0, (self.m, self.n), (), None)

    def child(self, vertex: Vertex, bit: int) -> Vertex:
        """The bit-0 or bit-1 child of an internal vertex."""
        if vertex.is_leaf:
            raise ValueError(f"vertex {eps_label(vertex.eps)} is a leaf")
        d, k = vertex.sigma
        if bit == 0:
            return self._make(vertex.bit0, (d, k - 1), vertex.eps + (0,), vertex.index)
        return self._make(vertex.bit1, (d - 1, k), vertex.eps + (1,), vertex.index)

    def vertex(self, eps: tuple) -> Vertex:
        """The vertex at path eps; KeyError if no vertex has that path."""
        eps = tuple(eps)
        d, k = self.m, self.n
        index, parent = 0, None
        for bit in eps:
            if d == 1 or k == 1 or bit not in (0, 1):
                raise KeyError(eps)
            parent = index
            if bit:
                index += self._bit1_step[d][k]
                d -= 1
            else:
                index += 1
                k -= 1
        return self._make(index, (d, k), eps, parent)

    @cached_property
    def vertices(self) -> list:
        """Every vertex in preorder, bit-0 child first."""
        out = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            out.append(v)
            if not v.is_leaf:
                stack.append(self.child(v, 1))
                stack.append(self.child(v, 0))
        return out

    @cached_property
    def _leaf_columns(self) -> tuple:
        """(index, sigma, eps, parent) of every leaf, left to right.

        From each popped vertex the walk follows the bit-0 chain down to its
        leaf, pushing every bit-1 child on the way for later.
        """
        steps = self._bit1_step
        columns = [], [], [], []
        add_index, add_sigma, add_eps, add_parent = (c.append for c in columns)
        stack = [(self.m, self.n, (), 0, None)]
        push, pop = stack.append, stack.pop
        while stack:
            d, k, eps, index, parent = pop()
            if d > 1:
                step = steps[d]
                while k > 1:
                    push((d - 1, k, eps + (1,), index + step[k], index))
                    parent = index
                    index += 1
                    k -= 1
                    eps += (0,)
            add_index(index)
            add_sigma((d, k))
            add_eps(eps)
            add_parent(parent)
        return columns

    @cached_property
    def leaves(self) -> LeafSequence:
        """Leaves in left-to-right order (bit-0 child first)."""
        return LeafSequence(*self._leaf_columns)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def depth(self) -> int:
        """Number of levels: 1 + max vertex depth, which equals m + n - 2.

        The deepest vertex sits at depth (m-1)+(n-1)-1 = m+n-3 because the
        split rule never produces a (1,1) leaf: whichever of dimension or
        degree hits 1 first ends the path one edge early.  Counting levels
        instead of edges restores the closed form m+n-2.  The deepest vertex
        is a leaf, so this is read off the walked leaves.
        """
        return 1 + max(map(len, self._leaf_columns[2]))


def build_tree(m: int, n: int) -> DecompTree:
    """The decomposition tree for m, n >= 2 (vertices are built on demand)."""
    if m < 2 or n < 2:
        raise ValueError(f"tree needs m, n >= 2, got ({m}, {n})")
    count_total(m, n)  # sizing guard
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


@dataclass(frozen=True)
class HyperplaneSpec:
    """A splitting hyperplane {x : <normal, x - base> = 0}.

    axis is the 0-based frame row used as the normal; offset is
    <normal, base>; alpha_exact is the rational offset along the axis
    relative to the inherited base.
    """

    eps: tuple
    axis: int
    normal: np.ndarray
    base: np.ndarray
    offset: float
    alpha_exact: Fraction

    def poly(self) -> MultiPoly:
        """The degree-1 polynomial <normal, x> - offset."""
        m = self.normal.size
        coeffs = np.zeros(count_total(m, 1))
        coeffs[0] = -self.offset
        coeffs[1:] = self.normal
        return MultiPoly(m, 1, coeffs)


def assign_hyperplanes(tree: DecompTree, frame=None, lam=Fraction(2)) -> dict:
    """Assign a hyperplane to every vertex whose eps ends in 1.

    Returns a dict eps -> HyperplaneSpec.  The normal at such a vertex v is
    frame[sigma1(v)] (0-based: the axis one past the remaining dimension);
    the base adds alpha(eps) * normal to the base inherited from the nearest
    ancestor assignment (bit-0 children inherit verbatim, the root starts at
    the origin).

    Validation: within every group of hyperplanes sharing a normal axis and
    the containing-flat history of their parent vertex, base offsets along
    the axis must be pairwise distinct (gap > 1e-9), otherwise the split
    geometry would collide and a larger lambda is required.
    """
    m = tree.m
    if frame is None:
        frame = np.eye(m)
    frame = np.asarray(frame, dtype=float)
    lam = Fraction(lam)
    if not lam > 1:
        raise GeometryConfigError(f"lambda must exceed 1, got {lam}")
    # alpha(eps) = alpha(eps[:-1]) + (-1)^(d-1) * lam^d at depth d = |eps|
    steps = [lam**d if d % 2 else -(lam**d) for d in range(tree.depth)]
    result: dict = {}
    groups: dict = {}
    # preorder walk; each entry carries the base and exact history (the
    # (axis, alpha) of every bit-1 step) of the flat its parent lives on
    stack = [(tree.root, np.zeros(m), ())]
    while stack:
        v, base, history = stack.pop()
        if v.eps and v.eps[-1] == 1:
            axis = v.sigma[0]  # 0-based row for xi_{sigma1+1}
            # trailing zero bits add nothing: the parent's alpha is the last
            # offset assigned on its path
            a = (history[-1][1] if history else 0) + steps[v.depth]
            base = base + float(a) * frame[axis]
            spec = HyperplaneSpec(
                eps=v.eps,
                axis=axis,
                normal=frame[axis].copy(),
                base=base,
                offset=float(frame[axis] @ base),
                alpha_exact=a,
            )
            result[v.eps] = spec
            groups.setdefault((axis, history), []).append(spec)
            history = history + ((axis, a),)
        if not v.is_leaf:  # bit-0 children inherit the flat unchanged
            stack.append((tree.child(v, 1), base, history))
            stack.append((tree.child(v, 0), base, history))
    for (axis, _), specs in groups.items():
        offsets = sorted(s.alpha_exact for s in specs)
        for lo, hi in zip(offsets, offsets[1:]):
            if float(hi - lo) <= 1e-9:
                raise GeometryConfigError(
                    f"hyperplanes on axis {axis + 1} nearly coincide "
                    f"(offsets {float(lo)} and {float(hi)}); increase lambda"
                )
    return result


def vertex_base(tree: DecompTree, vertex: Vertex, hyperplanes: dict) -> np.ndarray:
    """Base point of the flat a vertex lives on.

    This is the base of the nearest ancestor-or-self whose eps ends in 1,
    or the origin if the path is all zeros.
    """
    eps = vertex.eps
    for stop in range(len(eps), 0, -1):
        if eps[stop - 1] == 1:
            return hyperplanes[eps[:stop]].base
    return np.zeros(tree.m)


def dump_tree(tree: DecompTree, hyperplanes: dict) -> str:
    """Structured text dump of every vertex for golden-file comparisons."""
    lines = [f"tree m={tree.m} n={tree.n} depth={tree.depth} leaves={tree.leaf_count}"]
    for v in tree.vertices:
        parts = [
            f"eps={eps_label(v.eps)}",
            f"sigma=({v.sigma[0]},{v.sigma[1]})",
            "leaf" if v.is_leaf else "split",
        ]
        spec = hyperplanes.get(v.eps)
        if spec is not None:
            base_str = ",".join(f"{c:.17g}" for c in spec.base)
            parts.append(f"axis={spec.axis + 1}")
            parts.append(f"alpha={spec.alpha_exact}")
            parts.append(f"base=({base_str})")
        lines.append(" ".join(parts))
    return "\n".join(lines)
