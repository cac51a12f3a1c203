"""Assembly of the full generic node set from per-leaf constructions.

Each line leaf (dimension 1, degree k) contributes k+1 Chebyshev nodes on
its line; each degree-1 leaf (dimension j) contributes its j+1 affinely
independent unit-offset nodes, and the degree-0 leaf of an (m, 0) tree its
base, the origin.  The union over all leaves has exactly
N(m,n) points and is generic by construction: bit-1 branch nodes lie on
their splitting hyperplane, bit-0 branch nodes stay clear of it.  The
blocks are built one array operation per leaf sigma, from the rows and
flats of the tree's table, and the geometry guard checks one split sigma
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import GeometryConfigError
from .monomials import count_total
from .polynomial import _real_array
from .tree import assign_hyperplanes, build_tree, eps_label, vertex_base
from .univariate import chebyshev_parameters

__all__ = ["NodeSet", "leaf_slices", "leaf_nodes", "assemble_generic", "GEOMETRY_RTOL"]

# the one geometry tolerance, relative to the magnitudes a quantity is
# computed from (at least 1): a gap the construction guarantees must exceed
# it, and a deviation the construction excludes (a node off its line or its
# hyperplane) must stay within it
GEOMETRY_RTOL = 1e-9


@dataclass
class NodeSet:
    """Ordered node list with per-point provenance.

    points has shape (count, m); provenance[i] is the bit string of the
    leaf that produced point i (eps_label: "-" for a one-leaf tree's root),
    held as a tuple made from the sequence given (a tuple is kept, not
    copied); complex points raise ValueError."""

    points: np.ndarray
    provenance: tuple
    m: int
    n: int

    def __post_init__(self):
        self.points = _real_array(self.points, "points")
        self.provenance = tuple(self.provenance)
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


def leaf_nodes(sigma: tuple, bases: np.ndarray, frame: np.ndarray, kappa: float) -> np.ndarray:
    """The node blocks of leaves of one sigma whose flats have the given
    bases (one row each), as an array (leaves, nodes per leaf, m).

    A degree-0 leaf holds its base; a line leaf of degree k holds
    base + t * frame[0] at the k + 1 Chebyshev parameters t; a degree-1 leaf
    of dimension d holds its base, then base + frame[a] for each axis a < d.
    """
    d, k = sigma
    if k == 0:
        return bases[:, None, :]
    if d == 1:
        return bases[:, None, :] + chebyshev_parameters(k + 1, kappa)[:, None] * frame[0]
    if k == 1:
        return np.concatenate((bases[:, None, :], bases[:, None, :] + frame[:d]), axis=1)
    raise ValueError(f"sigma {sigma} is not that of a leaf")


def _check_separation(tree, hyperplanes, points, provenance, shift=None) -> None:
    """Every node must stay clear of every hyperplane its path divides by.

    At the rows lo:mid of each split, |<normal, x> - offset| must exceed
    GEOMETRY_RTOL * max(1, |offset| + |normal|.|x|), the scale the solver
    divides at; offset is that of the hyperplane moved by shift.  Each split
    sigma is checked at once, on a gather from the points' projection onto
    the normal of its axis.  Reported is the first failing leaf in storage
    order, at its split nearest the root, with its nodes' least distance.
    """
    lo, offsets = tree.split_lo, hyperplanes.for_tree(tree).offset
    failures, axis = [], None
    for (d, k), at in tree.split_groups.items():
        if d - 1 != axis:
            axis, normal = d - 1, hyperplanes.frame[d - 1]
            along, scale = points @ normal, np.abs(points) @ np.abs(normal)
            moved = 0.0 if shift is None else float(normal @ shift)
        offset, starts = offsets[at, None] + moved, lo[at]
        rows = starts[:, None] + np.arange(count_total(d, k - 1))
        gaps = np.abs(along[rows] - offset)
        close = gaps <= GEOMETRY_RTOL * np.maximum(1.0, np.abs(offset) + scale[rows])
        for i in np.flatnonzero(close.any(axis=1)):
            start, key = starts[i], tree.key[at[i]]
            label = provenance[start + close[i].argmax()]
            first = provenance.index(label, start)  # the failing leaf's rows
            leaf = gaps[i, first - start : first - start + provenance.count(label)]
            failures.append((first, len(key), label, eps_label(key), leaf.min()))
    if failures:
        _, _, label, key, worst = min(failures)
        raise GeometryConfigError(
            f"a node of leaf {label} lies within {worst:.3e} of the "
            f"splitting hyperplane {key}; lambda/kappa configuration collides"
        )


def assemble_generic(m: int, n: int, frame=None, lam=Fraction(2), kappa: float = 1.0, mu=None):
    """Build the generic node set for (m, n); returns (NodeSet, tree, hyperplanes).

    Every leaf of the decomposition tree contributes its block at the rows
    the tree's table gives it, in left-to-right leaf order.  A base case is
    a one-leaf tree with an empty hyperplane table: n = 0 is the single
    origin node, m = 1 uses n+1 Chebyshev nodes on the axis, n = 1 uses the
    m+1 unit-offset nodes.  A lambda that does not exceed 1 raises
    GeometryConfigError for every shape.

    mu, if given, translates all returned points (a post-transform; the tree
    and hyperplanes describe the untranslated construction).  A frame or mu
    that is complex, of the wrong shape or with a non-finite entry, a frame
    whose rows are not orthonormal within 1e-10 or whose first row is not a
    unit vector within 1e-12, or a kappa that is not positive and finite,
    raises ValueError.

    The returned points (after mu) pass one check with the one tolerance
    GEOMETRY_RTOL, or GeometryConfigError names the leaf, the hyperplane and
    the distance, or the spread: each split's dividing rows clear its
    hyperplane, and the closest nodes of a leaf stand apart, each relative
    to the magnitudes involved.  By the construction's proof that keeps
    nodes of different leaves and parallel hyperplanes of one flat apart,
    and the solver's divisors clear of zero.
    """
    if m < 1 or n < 0:
        raise ValueError(f"need m >= 1 and n >= 0, got ({m}, {n})")
    if frame is None:
        frame = np.eye(m)
    frame = _real_array(frame, "frame")
    if frame.shape != (m, m):
        raise ValueError(f"frame shape {frame.shape} does not match m={m}")
    if mu is not None:
        mu = _real_array(mu, "mu")
        if mu.shape != (m,):
            raise ValueError(f"mu must be an m-vector, got shape {mu.shape}")
    for name, value in (("frame", frame), ("mu", mu)):
        if value is not None and not np.isfinite(value).all():
            raise ValueError(f"{name} has a non-finite entry")
    if np.abs(frame @ frame.T - np.eye(m)).max() > 1e-10:
        raise ValueError("frame rows are not orthonormal (within 1e-10)")
    if abs(np.linalg.norm(frame[0]) - 1.0) > 1e-12:
        raise ValueError("line direction must have unit norm (within 1e-12)")
    if not 0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    tree = build_tree(m, n)
    hyperplanes = assign_hyperplanes(tree, frame=frame, lam=lam)
    bases, lo, flat = vertex_base(tree, hyperplanes), tree.leaf_lo, tree.leaf_flat
    points = np.empty((count_total(m, n), m))
    for sigma, at in tree.leaf_groups.items():
        blocks = leaf_nodes(sigma, bases[flat[at]], frame, kappa)
        points[lo[at, None] + np.arange(blocks.shape[1])] = blocks
    provenance = tree.provenance()
    if mu is not None:
        points += mu
    _check_separation(tree, hyperplanes, points, provenance, mu)
    # the closest nodes of a leaf: on the longest line leaf, or unit offsets apart
    count = max((k + 1 for d, k in tree.leaf_groups if d == 1), default=1)
    spread = np.min(-np.diff(chebyshev_parameters(count, kappa)), initial=1.0)
    scale = max(1.0, float(np.abs(points).max()))
    if spread <= GEOMETRY_RTOL * scale:
        raise GeometryConfigError(
            f"leaf nodes {spread:.3e} apart are too close at coordinate scale "
            f"{scale:.3e}; lambda/kappa configuration collides"
        )
    return NodeSet(points, provenance, m, n), tree, hyperplanes
