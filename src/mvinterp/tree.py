"""The sub-problem tree, its one table, and its splitting hyperplanes.

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

The tree depends on (m, n) only.  Building it walks it once into one
preorder table (see DecompTree), which everything else reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .exceptions import GeometryConfigError
from .monomials import count_total

__all__ = [
    "Vertex",
    "DecompTree",
    "HyperplaneSpec",
    "build_tree",
    "alpha",
    "assign_hyperplanes",
    "vertex_base",
    "dump_tree",
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
    its parent is eps[:-1] and its depth is len(eps).
    """

    sigma: tuple
    eps: tuple

    @property
    def is_leaf(self) -> bool:
        return 1 in self.sigma


def _vertex_list(sigma, eps) -> list:
    """Vertex(s, e) for the pairs of sigma and eps, each made by tuple.__new__
    without a Python-level call, as a large tree has tens of thousands.

    The lists are not kept: a Vertex is a tuple subclass, which the garbage
    collector never stops tracking, so a kept list of a large tree's
    vertices would make its full collections rescan them all.
    """
    return list(map(tuple.__new__, repeat(Vertex), zip(sigma, eps)))


class DecompTree:
    """Binary decomposition tree for dimension m >= 2 and degree n >= 2.

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

    Nodes are stored subtree by subtree, bit-0 child first, so a split of
    sigma (d, k) owns rows lo:hi: N(d, k-1) rows lo:mid of its bit-0 child,
    which divide by its hyperplane, and N(d-1, k) rows mid:hi of its bit-1
    child, which lie on it.  ``root``, ``child`` and ``vertex`` make one
    vertex each from its path without the table.
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
                if d == 1 or k == 1:
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

    @property
    def vertices(self) -> list:
        """Every vertex in preorder, bit-0 child first, as a new list."""
        return _vertex_list(self.sigma, self.eps)

    def by_sigma(self, column) -> dict:
        """sigma -> array of the positions i in a column of vertices (``leaf``
        or ``split``) whose vertex column[i] has that sigma, in order of sigma.
        Such a group's row blocks are equally long; a split group's share an axis."""
        groups: dict = {}
        for i, vertex in enumerate(column):
            groups.setdefault(self.sigma[vertex], []).append(i)
        return {sigma: np.array(groups[sigma]) for sigma in sorted(groups)}

    def crossed(self, vertex: int) -> list:
        """The splits whose hyperplanes the rows of a vertex divide by, one
        per 0 bit of its path, root first."""
        out = []
        split = self.cross[vertex]
        while split >= 0:
            out.append(split)
            split = self.cross[self.split[split]]
        return out[::-1]

    @property
    def leaves(self) -> list:
        """Leaves in left-to-right order (bit-0 child first), as a new list."""
        return _vertex_list(map(self.sigma.__getitem__, self.leaf), map(self.eps.__getitem__, self.leaf))

    def provenance(self) -> list:
        """The label of the leaf that owns each node row, in storage order."""
        out = []
        for v in self.leaf:
            out += [eps_label(self.eps[v])] * (self.hi[v] - self.lo[v])
        return out

    @property
    def leaf_count(self) -> int:
        return len(self.leaf)

    @property
    def depth(self) -> int:
        """Number of levels: 1 + max vertex depth, which equals m + n - 2.

        The deepest vertex sits at depth (m-1)+(n-1)-1 = m+n-3 because the
        split rule never produces a (1,1) leaf: whichever of dimension or
        degree hits 1 first ends the path one edge early.  Counting levels
        instead of edges restores the closed form m+n-2.
        """
        return 1 + max(map(len, self.eps))


def build_tree(m: int, n: int) -> DecompTree:
    """The decomposition tree for m, n >= 2, walked once into its table."""
    if m < 2 or n < 2:
        raise ValueError(f"tree needs m, n >= 2, got ({m}, {n})")
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

    axis is the 0-based frame row used as the normal, a read-only row of
    one copy of the frame that the specs of an assignment share; offset is
    <normal, base>; alpha_exact is the rational offset along the axis
    relative to the inherited base.
    """

    eps: tuple
    axis: int
    normal: np.ndarray
    base: np.ndarray
    offset: float
    alpha_exact: Fraction


def assign_hyperplanes(tree: DecompTree, frame=None, lam=Fraction(2)) -> dict:
    """Assign a hyperplane to every vertex whose eps ends in 1.

    Returns a dict eps -> HyperplaneSpec, in the tree's split order.  The
    normal at such a vertex v is frame[sigma1(v)] (0-based: the axis one
    past the remaining dimension); the base adds alpha(eps) * normal to the
    base of the flat v's parent lives on (the origin for the whole space).
    One pass over the splits in preorder suffices, as that flat belongs to
    an earlier split.

    Validation: lambda > 1.  The hyperplanes splitting one flat stay apart
    because assemble_generic's geometry check does: the nodes on a later
    one are dividing rows of an earlier one, at exactly the offset gap.
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
    normals = frame.copy()
    normals.flags.writeable = False
    specs = []
    for vertex, key in zip(tree.split, tree.key):
        outer, axis = tree.flat[vertex], tree.sigma[vertex][0] - 1
        base, a = (specs[outer].base, specs[outer].alpha_exact) if outer >= 0 else (np.zeros(m), 0)
        a = a + steps[len(key)]
        normal = normals[axis]
        base = base + float(a) * normal
        specs.append(
            HyperplaneSpec(
                eps=key, axis=axis, normal=normal, base=base, offset=float(normal @ base), alpha_exact=a
            )
        )
    return dict(zip(tree.key, specs))


def vertex_base(tree: DecompTree, hyperplanes: dict) -> np.ndarray:
    """The base point of every flat: row s that of split s's hyperplane and
    the last row the origin, so row tree.flat[v] is the base of vertex v."""
    return np.array([*(hyperplanes[key].base for key in tree.key), np.zeros(tree.m)])


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
