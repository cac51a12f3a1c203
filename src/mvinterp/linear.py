"""Degree-1 interpolation on a k-dimensional affine flat.

The flat is spanned by an orthonormal subset of frame axes through a base
point; its k+1 interpolation nodes are the base and one unit offset per
active axis, which makes the degree-1 system solvable by differences in
O(m*k) arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monomials import count_total
from .polynomial import MultiPoly

__all__ = ["FlatSpec", "linear_generic_nodes", "solve_linear"]


@dataclass
class FlatSpec:
    """A k-flat: base + span(frame[a] for a in active).

    frame is an orthonormal m x m matrix stored row-wise (row a is the
    a-th axis direction); active lists the 0-based rows spanning the flat.
    """

    frame: np.ndarray
    active: tuple
    base: np.ndarray

    def __post_init__(self):
        self.frame = np.asarray(self.frame, dtype=float)
        self.base = np.asarray(self.base, dtype=float)
        self.active = tuple(int(a) for a in self.active)
        m = self.base.size
        if self.frame.shape != (m, m):
            raise ValueError(f"frame shape {self.frame.shape} does not match m={m}")
        if not 1 <= len(self.active) <= m:
            raise ValueError(f"active axis count must be in 1..{m}")
        if len(set(self.active)) != len(self.active):
            raise ValueError("active axes must be distinct")
        gram = self.frame @ self.frame.T
        if np.abs(gram - np.eye(m)).max() > 1e-10:
            raise ValueError("frame rows are not orthonormal (within 1e-10)")

    @property
    def m(self) -> int:
        return self.base.size

    @property
    def k(self) -> int:
        return len(self.active)


def linear_generic_nodes(flat: FlatSpec) -> np.ndarray:
    """The k+1 affinely independent nodes: base, then base + frame[a] per axis."""
    rows = [flat.base]
    for a in flat.active:
        rows.append(flat.base + flat.frame[a])
    return np.array(rows)


def solve_linear(values, flat: FlatSpec, tally=None) -> MultiPoly:
    """Solve the degree-1 problem on a flat from its node values.

    values holds the function at the nodes p_1 = base and
    p_{a+1} = base + frame[a] (see linear_generic_nodes).  The coefficients
    in flat coordinates are c_0 = f(p_1) and c_a = f(base + frame[a]) - f(base);
    the returned m-variate polynomial is c_0 - <w, base> + <w, x> with
    w = sum_a c_a * frame[a].  It takes the values at the nodes and has
    effective degree <= 1.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (flat.k + 1,):
        raise ValueError(
            f"expected {flat.k + 1} node values, got shape {values.shape}"
        )
    c0 = values[0]
    chat = values[1:] - c0
    w = chat @ flat.frame[list(flat.active)]
    coeffs = np.zeros(count_total(flat.m, 1))
    coeffs[0] = c0 - w @ flat.base
    coeffs[1:] = w
    if tally is not None:
        tally.add_ops((flat.m + 2) * (flat.k + 1))
    return MultiPoly(flat.m, 1, coeffs)
