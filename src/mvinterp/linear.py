"""Degree-1 interpolation on a k-dimensional affine flat.

The flat is spanned by k orthonormal frame axes through a base point; its
k+1 interpolation nodes are the base and one unit offset per axis, which
makes the degree-1 system solvable by differences in O(m*k) arithmetic
(solve_linear).
"""

from __future__ import annotations

import numpy as np

from .monomials import count_total

__all__ = ["solve_linear"]


def solve_linear(values, axes, base, tally=None) -> np.ndarray:
    """The coefficients in m variables of the degree-1 interpolant of values
    at the nodes base and base + axes[a], axes holding the k active frame
    rows.  In flat coordinates c_0 = f(base) and
    c_a = f(base + axes[a]) - f(base); the coefficients in m variables are
    those of c_0 - <w, base> + <w, x> with w = sum_a c_a * axes[a]."""
    c0 = values[0]
    chat = values[1:] - c0
    w = chat @ axes
    coeffs = np.zeros(count_total(base.size, 1))
    coeffs[0] = c0 - w @ base
    coeffs[1:] = w
    if tally is not None:
        tally.add_ops((base.size + 2) * values.size)
    return coeffs
