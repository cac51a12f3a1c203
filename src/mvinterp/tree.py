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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import GeometryConfigError
from .monomials import count_total
from .polynomial import MultiPoly

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


def eps_label(eps) -> str:
    """The bit string of a path, "-" for the empty root path."""
    return "".join(map(str, eps)) or "-"


@dataclass(frozen=True)
class Vertex:
    """One tree vertex: sigma = (dimension, degree), eps = path bits."""

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


class DecompTree:
    """Binary decomposition tree for dimension m >= 2 and degree n >= 2."""

    def __init__(self, m: int, n: int, vertices: list):
        self.m = m
        self.n = n
        self.vertices = vertices
        self._by_eps = {v.eps: v.index for v in vertices}

    @property
    def root(self) -> Vertex:
        return self.vertices[0]

    def vertex(self, eps: tuple) -> Vertex:
        return self.vertices[self._by_eps[tuple(eps)]]

    @property
    def leaves(self) -> list:
        """Leaves in left-to-right order (bit-0 child first)."""
        return [v for v in self.vertices if v.is_leaf]

    @property
    def leaf_count(self) -> int:
        return sum(1 for v in self.vertices if v.is_leaf)

    @property
    def depth(self) -> int:
        """Number of levels: 1 + max vertex depth, which equals m + n - 2.

        The deepest vertex sits at depth (m-1)+(n-1)-1 = m+n-3 because the
        split rule never produces a (1,1) leaf: whichever of dimension or
        degree hits 1 first ends the path one edge early.  Counting levels
        instead of edges restores the closed form m+n-2.
        """
        return 1 + max(v.depth for v in self.vertices)


def build_tree(m: int, n: int) -> DecompTree:
    """Build the full decomposition tree for m, n >= 2.

    Vertices are stored in preorder with the bit-0 (left) child first, so
    ``leaves`` comes out in left-to-right order.
    """
    if m < 2 or n < 2:
        raise ValueError(f"tree needs m, n >= 2, got ({m}, {n})")
    count_total(m, n)  # sizing guard
    sigmas: list = []
    epss: list = []
    parents: list = []
    bit0s: list = []
    bit1s: list = []
    # Stack of (sigma, eps, parent_index, bit_in_parent).  The bit-1 child is
    # pushed first so the bit-0 (left) child pops first: preorder, left first.
    stack = [((m, n), (), None, None)]
    while stack:
        sigma, eps, parent, bit = stack.pop()
        index = len(sigmas)
        sigmas.append(sigma)
        epss.append(eps)
        parents.append(parent)
        bit0s.append(None)
        bit1s.append(None)
        if parent is not None:
            (bit0s if bit == 0 else bit1s)[parent] = index
        d, k = sigma
        if d > 1 and k > 1:
            stack.append(((d - 1, k), eps + (1,), index, 1))
            stack.append(((d, k - 1), eps + (0,), index, 0))
    vertices = [
        Vertex(i, sigmas[i], epss[i], parents[i], bit0s[i], bit1s[i])
        for i in range(len(sigmas))
    ]
    return DecompTree(m, n, vertices)


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

    def value_at(self, p) -> float:
        return float(self.normal @ np.asarray(p, dtype=float) - self.offset)


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
    bases = {(): np.zeros(m)}
    exact_history: dict = {(): ()}
    for v in tree.vertices:
        if v.parent is None:
            continue
        parent_eps = v.eps[:-1]
        if v.eps[-1] == 0:
            bases[v.eps] = bases[parent_eps]
            exact_history[v.eps] = exact_history[parent_eps]
            continue
        axis = v.sigma[0]  # 0-based row for xi_{sigma1+1}
        history = exact_history[parent_eps]
        # trailing zero bits add nothing: the parent's alpha is the last
        # offset assigned on its path
        a = (history[-1][1] if history else 0) + steps[v.depth]
        base = bases[parent_eps] + float(a) * frame[axis]
        spec = HyperplaneSpec(
            eps=v.eps,
            axis=axis,
            normal=frame[axis].copy(),
            base=base,
            offset=float(frame[axis] @ base),
            alpha_exact=a,
        )
        result[v.eps] = spec
        bases[v.eps] = base
        exact_history[v.eps] = exact_history[parent_eps] + ((axis, a),)
    groups: dict = {}
    for v in tree.vertices:
        spec = result.get(v.eps)
        if spec is None:
            continue
        key = (spec.axis, exact_history[v.eps[:-1]])
        groups.setdefault(key, []).append(spec)
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
