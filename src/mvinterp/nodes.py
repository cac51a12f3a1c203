"""Assembly of the full generic node set from per-leaf constructions.

Each line leaf (dimension 1, degree k) contributes k+1 Chebyshev nodes on
its line; each degree-1 leaf (dimension j) contributes its j+1 affinely
independent unit-offset nodes.  The union over all leaves has exactly
N(m,n) points and is generic by construction: bit-1 branch nodes lie on
their splitting hyperplane, bit-0 branch nodes stay clear of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

from .exceptions import GeometryConfigError
from .linear import FlatSpec, linear_generic_nodes
from .monomials import count_total
from .tree import DecompTree, Vertex, assign_hyperplanes, build_tree, eps_label, vertex_base
from .univariate import LineSpec, chebyshev_nodes

__all__ = ["NodeSet", "leaf_slices", "leaf_nodes", "assemble_generic"]

SEPARATION_MIN = 1e-9
DISTINCT_MIN = 1e-12


@dataclass
class NodeSet:
    """Ordered node list with per-point provenance.

    points has shape (count, m); provenance[i] is the bit string of the
    leaf that produced point i ("-" when the problem had no tree).
    """

    points: np.ndarray
    provenance: list
    m: int
    n: int

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != self.m:
            raise ValueError(f"points must have shape (count, {self.m})")
        if len(self.provenance) != self.points.shape[0]:
            raise ValueError("provenance length must match the point count")

    def __len__(self) -> int:
        return self.points.shape[0]


def leaf_slices(nodes: NodeSet) -> dict:
    """Map each provenance label to its contiguous slice of rows."""
    out: dict = {}
    for i, label in enumerate(nodes.provenance):
        if label not in out:
            out[label] = [i, i + 1]
        else:
            if out[label][1] != i:
                raise ValueError("provenance labels are not contiguous")
            out[label][1] = i + 1
    return {label: slice(lo, hi) for label, (lo, hi) in out.items()}


def leaf_nodes(leaf: Vertex, tree: DecompTree, hyperplanes: dict, frame, kappa: float) -> np.ndarray:
    """Node block for one leaf: Chebyshev on a line, or unit offsets on a flat."""
    d, k = leaf.sigma
    base = vertex_base(tree, leaf, hyperplanes)
    if d == 1:
        line = LineSpec(direction=frame[0], base=base, kappa=kappa)
        return chebyshev_nodes(k + 1, line)
    if k == 1:
        flat = FlatSpec(frame=frame, active=tuple(range(d)), base=base)
        return linear_generic_nodes(flat)
    raise ValueError(f"vertex {leaf.eps} with sigma {leaf.sigma} is not a leaf")


def _check_distinct(points: np.ndarray) -> None:
    """Verify pairwise distinctness (min distance > DISTINCT_MIN)."""
    if points.shape[0] < 2:
        return
    pairs = cKDTree(points).query_pairs(DISTINCT_MIN, output_type="ndarray")
    if pairs.size:
        i, j = pairs[0]
        raise GeometryConfigError(
            f"assembled nodes {i} and {j} (nearly) coincide; "
            "lambda/kappa configuration collides"
        )


def _check_separation(tree, hyperplanes, points, provenance) -> None:
    """Every node must stay clear of every hyperplane its path divides by.

    The hyperplane of each split must exceed SEPARATION_MIN in magnitude
    at its rows lo:mid.  Reported is the first failing leaf in storage
    order, at its split nearest the root, with its nodes' least distance.
    """
    failures = []
    for key, _, lo, mid, _ in tree.splits():
        gaps = np.abs(points[lo:mid] @ hyperplanes[key].normal - hyperplanes[key].offset)
        close = np.flatnonzero(gaps <= SEPARATION_MIN)
        if close.size:
            label = provenance[lo + close[0]]
            first = provenance.index(label, lo)  # the failing leaf's rows
            leaf = gaps[first - lo : first - lo + provenance.count(label)]
            failures.append((first, len(key), label, eps_label(key), leaf.min()))
    if failures:
        _, _, label, key, worst = min(failures)
        raise GeometryConfigError(
            f"a node of leaf {label} lies within {worst:.3e} of the "
            f"splitting hyperplane {key}; lambda/kappa configuration collides"
        )


def assemble_generic(m: int, n: int, frame=None, lam=Fraction(2), kappa: float = 1.0, mu=None):
    """Build the generic node set for (m, n); returns (NodeSet, tree, hyperplanes).

    Base cases are handled without a tree (tree None, empty hyperplane map):
    n = 0 is the single origin node, m = 1 uses n+1 Chebyshev nodes on the
    axis, n = 1 uses the m+1 unit-offset nodes.  Otherwise every leaf of the
    decomposition tree contributes its block, in left-to-right leaf order.

    mu, if given, translates all returned points (a post-transform; the tree
    and hyperplanes describe the untranslated construction).  A frame or mu
    of the wrong shape or with a non-finite entry raises ValueError.
    """
    if m < 1 or n < 0:
        raise ValueError(f"need m >= 1 and n >= 0, got ({m}, {n})")
    if frame is None:
        frame = np.eye(m)
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (m, m):
        raise ValueError(f"frame shape {frame.shape} does not match m={m}")
    if mu is not None:
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (m,):
            raise ValueError(f"mu must be an m-vector, got shape {mu.shape}")
    for name, value in (("frame", frame), ("mu", mu)):
        if value is not None and not np.isfinite(value).all():
            raise ValueError(f"{name} has a non-finite entry")
    total = count_total(m, n)
    tree = None
    hyperplanes: dict = {}
    if n == 0:
        points = np.zeros((1, m))
        provenance = ["-"]
    elif m == 1:
        line = LineSpec(direction=frame[0], base=np.zeros(1), kappa=kappa)
        points = chebyshev_nodes(n + 1, line)
        provenance = ["-"] * (n + 1)
    elif n == 1:
        flat = FlatSpec(frame=frame, active=tuple(range(m)), base=np.zeros(m))
        points = linear_generic_nodes(flat)
        provenance = ["-"] * (m + 1)
    else:
        tree = build_tree(m, n)
        hyperplanes = assign_hyperplanes(tree, frame=frame, lam=lam)
        blocks = [leaf_nodes(leaf, tree, hyperplanes, frame, kappa) for leaf in tree.leaves]
        points = np.concatenate(blocks, axis=0)
        del blocks
        provenance = tree.provenance()
        _check_separation(tree, hyperplanes, points, provenance)
    if points.shape[0] != total:
        raise AssertionError(
            f"assembled {points.shape[0]} nodes for (m={m}, n={n}), expected {total}"
        )
    _check_distinct(points)
    if mu is not None:
        points = points + mu
    return NodeSet(points, provenance, m, n), tree, hyperplanes
