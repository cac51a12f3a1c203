"""The sub-problem tree and its splitting hyperplanes.

A problem of dimension m and degree n splits into a bit-1 child (m-1, n),
whose nodes will live ON a fresh hyperplane, and a bit-0 child (m, n-1),
whose nodes stay off it.  Splitting stops as soon as the dimension or the
degree reaches 1, so every leaf is a line problem or a degree-1 problem.
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
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
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

    The path names the vertex: its children are eps + (0,) and eps + (1,),
    its parent is eps[:-1] and its depth is len(eps).
    """

    sigma: tuple
    eps: tuple

    @property
    def is_leaf(self) -> bool:
        return 1 in self.sigma


# Vertex from a (sigma, eps) pair, without a Python-level call
_new_vertex = partial(tuple.__new__, Vertex)


class LeafSequence(Sequence):
    """The leaves of a tree in left-to-right order, as a read-only sequence.

    The leaf walk stores the sigma and eps of every leaf as two columns,
    and a Vertex is made as each item is read.  The columns hold only
    tuples of ints, which the garbage collector stops tracking, so the
    leaves of a large tree (48620 at m = n = 10) add no objects for its
    full collections to rescan.
    """

    def __init__(self, sigma: list, eps: list):
        self._columns = (sigma, eps)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return Vertex(*(column[i] for column in self._columns))

    def __iter__(self):
        return map(_new_vertex, zip(*self._columns))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


class DecompTree:
    """Binary decomposition tree for dimension m >= 2 and degree n >= 2.

    The tree is fixed by (m, n) and stored implicitly: a vertex is its path
    eps, and its sigma follows from counting the bits (each 0 lowers the
    degree, each 1 the dimension).  ``root``, ``child`` and ``vertex`` make
    one vertex each, ``leaves`` is one walk (kept) that makes no internal
    vertex, and the full preorder ``vertices`` list is built on first use
    only.  ``splits`` and ``provenance`` give the node rows that each split
    and each leaf own in the assembled node set.
    """

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n

    @property
    def root(self) -> Vertex:
        return Vertex((self.m, self.n), ())

    def child(self, vertex: Vertex, bit: int) -> Vertex:
        """The bit-0 or bit-1 child of an internal vertex."""
        if vertex.is_leaf:
            raise ValueError(f"vertex {eps_label(vertex.eps)} is a leaf")
        d, k = vertex.sigma
        if bit == 0:
            return Vertex((d, k - 1), vertex.eps + (0,))
        return Vertex((d - 1, k), vertex.eps + (1,))

    def vertex(self, eps: tuple) -> Vertex:
        """The vertex at path eps; KeyError if no vertex has that path."""
        eps = tuple(eps)
        d, k = self.m, self.n
        for bit in eps:
            if d == 1 or k == 1 or bit not in (0, 1):
                raise KeyError(eps)
            if bit:
                d -= 1
            else:
                k -= 1
        return Vertex((d, k), eps)

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

    def splits(self):
        """(key, axis, lo, mid, hi) for every internal vertex, in preorder.

        Nodes are stored subtree by subtree, bit-0 child first, so a vertex
        of sigma (d, k) owns rows lo:hi: N(d, k-1) rows lo:mid of its bit-0
        child, which divide by its hyperplane, and N(d-1, k) rows mid:hi of
        its bit-1 child, which lie on it.  key, the path of the bit-1 child,
        names the hyperplane, and axis is the 0-based frame row of its normal.
        """
        stack = [(self.m, self.n, (), 0)]
        while stack:
            d, k, eps, lo = stack.pop()
            if d == 1 or k == 1:
                continue
            mid = lo + count_total(d, k - 1)
            yield eps + (1,), d - 1, lo, mid, mid + count_total(d - 1, k)
            stack.append((d - 1, k, eps + (1,), mid))
            stack.append((d, k - 1, eps + (0,), lo))

    def provenance(self) -> list:
        """The label of the leaf that owns each node row, in storage order."""
        out = []
        for sigma, eps in zip(*self._leaf_columns):
            out += [eps_label(eps)] * count_total(*sigma)
        return out

    @cached_property
    def _leaf_columns(self) -> tuple:
        """(sigma, eps) of every leaf, left to right.

        From each popped vertex the walk follows the bit-0 chain down to its
        leaf, pushing every bit-1 child on the way for later.
        """
        sigmas, paths = [], []
        stack = [(self.m, self.n, ())]
        push, pop = stack.append, stack.pop
        while stack:
            d, k, eps = pop()
            if d > 1:
                while k > 1:
                    push((d - 1, k, eps + (1,)))
                    k -= 1
                    eps += (0,)
            sigmas.append((d, k))
            paths.append(eps)
        return sigmas, paths

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
        return 1 + max(map(len, self._leaf_columns[1]))


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

    Validation: within every group of hyperplanes that split the same flat
    (the one their parent vertex lives on), base offsets along the axis
    must be pairwise distinct (gap > 1e-9), otherwise the split geometry
    would collide and a larger lambda is required.  A flat is named by the
    path of the vertex that placed it: two paths give the same offset
    history exactly when their bit-1 positions agree, since each bit-1 step
    at depth d adds +-lambda^d and lambda > 1.
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
    groups: dict = {}  # path of the flat being split -> its hyperplanes
    # preorder walk; each entry carries sigma, eps and the path, base and
    # alpha of the flat it lives on: that of its nearest ancestor-or-self
    # whose eps ends in 1, or ((), origin, 0) for the whole space
    stack = [(m, tree.n, (), (), np.zeros(m), 0)]
    while stack:
        d, k, eps, flat, base, a = stack.pop()
        if eps and eps[-1] == 1:
            axis = d  # 0-based row for xi_{sigma1+1}
            a = a + steps[len(eps)]
            base = base + float(a) * frame[axis]
            spec = HyperplaneSpec(
                eps=eps,
                axis=axis,
                normal=frame[axis].copy(),
                base=base,
                offset=float(frame[axis] @ base),
                alpha_exact=a,
            )
            result[eps] = spec
            groups.setdefault(flat, []).append(spec)
            flat = eps
        if d > 1 and k > 1:  # bit-0 children inherit the flat unchanged
            stack.append((d - 1, k, eps + (1,), flat, base, a))
            stack.append((d, k - 1, eps + (0,), flat, base, a))
    for specs in groups.values():
        offsets = sorted(s.alpha_exact for s in specs)
        for lo, hi in zip(offsets, offsets[1:]):
            if float(hi - lo) <= 1e-9:
                raise GeometryConfigError(
                    f"hyperplanes on axis {specs[0].axis + 1} nearly coincide "
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
