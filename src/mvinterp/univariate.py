"""One-dimensional interpolation on an affine line in m-space.

Chebyshev placement on the line, a Newton divided-difference solve in the
line parameter, and the lift of the result back to m variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInputError
from .monomials import count_total
from .polynomial import MultiPoly, embed_univariate

__all__ = ["LineSpec", "chebyshev_nodes", "solve_univariate", "solve_on_line"]


@dataclass
class LineSpec:
    """An affine line: base + t * direction, with a node-spread scale kappa."""

    direction: np.ndarray
    base: np.ndarray
    kappa: float = 1.0

    def __post_init__(self):
        self.direction = np.asarray(self.direction, dtype=float)
        self.base = np.asarray(self.base, dtype=float)
        if abs(np.linalg.norm(self.direction) - 1.0) > 1e-12:
            raise ValueError("line direction must have unit norm (within 1e-12)")
        if not 0 < self.kappa < np.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")

    @property
    def m(self) -> int:
        return self.direction.size


def chebyshev_parameters(count: int, kappa: float = 1.0) -> np.ndarray:
    """The count line parameters kappa * cos((2k-1)π/(2*count)), k = 1..count."""
    if count < 1:
        raise ValueError(f"need at least one node, got count={count}")
    k = np.arange(1, count + 1)
    return kappa * np.cos((2 * k - 1) * np.pi / (2 * count))


def chebyshev_nodes(count: int, line: LineSpec) -> np.ndarray:
    """count pairwise-distinct points on the line at Chebyshev parameters.

    Returns an array of shape (count, m); row k-1 is
    kappa*cos((2k-1)π/(2*count)) * direction + base.
    """
    t = chebyshev_parameters(count, line.kappa)
    return line.base[np.newaxis, :] + t[:, np.newaxis] * line.direction[np.newaxis, :]


def solve_univariate(nodes, values, tally=None) -> np.ndarray:
    """Coefficients (c_0..c_k) of the unique degree <= k interpolant.

    Newton divided differences followed by expansion into the monomial
    basis; O(k^2) arithmetic.  Nodes must be pairwise distinct: the minimal
    gap must exceed 1e-14 times the node span.

    Raises
    ------
    DegenerateInputError
        On (near-)duplicate nodes.
    """
    t = np.asarray(nodes, dtype=float)
    c = np.array(values, dtype=float)
    if t.shape != c.shape or t.ndim != 1:
        raise ValueError("nodes and values must be 1-D arrays of equal length")
    k = t.size - 1
    if k >= 1:
        srt = np.sort(t)
        span = srt[-1] - srt[0]
        if np.min(np.diff(srt)) <= 1e-14 * span:
            raise DegenerateInputError(
                "interpolation nodes contain a (near-)duplicate pair"
            )
    for j in range(1, k + 1):
        c[j:] = (c[j:] - c[j - 1 : -1]) / (t[j:] - t[: -j])
    out = np.zeros(k + 1)
    out[0] = c[k]
    for i in range(k - 1, -1, -1):
        out[1 : k - i + 1] = out[: k - i]
        out[0] = 0.0
        out[: k - i] -= t[i] * out[1 : k - i + 1]
        out[0] += c[i]
    if tally is not None:
        tally.add_ops(3 * k * (k + 1) // 2 + k * (k + 1))
    return out


def solve_on_line(values, degree: int, line: LineSpec, nodes, tally=None) -> MultiPoly:
    """Interpolate node values on a line: the MultiPoly in m variables.

    values holds the function at the degree+1 nodes, which lie on the line.
    Solves in the line parameter t(x) = <x - base, direction> and lifts the
    result; the returned polynomial takes the values at the nodes and has
    effective degree <= degree.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    nodes = np.asarray(nodes, dtype=float)
    if nodes.shape != (degree + 1, line.m):
        raise ValueError(
            f"expected {degree + 1} nodes of dimension {line.m}, "
            f"got shape {nodes.shape}"
        )
    t = (nodes - line.base) @ line.direction
    chat = solve_univariate(t, values, tally=tally)
    poly = embed_univariate(chat, line.direction, line.base)
    if tally is not None:
        m = line.m
        tally.add_ops(
            sum((m + 2) * count_total(m, i) for i in range(1, degree + 1))
        )
    return poly
