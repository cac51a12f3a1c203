"""One-dimensional interpolation on an affine line in m-space.

Chebyshev parameters for the nodes on a line, and the line leaf's solve:
a Newton divided-difference solve in the line parameter t (solve_univariate)
followed by the lift of the result back to m variables, with
t(x) = t0 + <direction, x> (solve_on_line).
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateInputError
from .polynomial import embed_univariate

__all__ = ["solve_univariate", "solve_on_line"]


def chebyshev_parameters(count: int, kappa: float = 1.0) -> np.ndarray:
    """The count line parameters kappa * cos((2k-1)π/(2*count)), k = 1..count."""
    if count < 1:
        raise ValueError(f"need at least one node, got count={count}")
    k = np.arange(1, count + 1)
    return kappa * np.cos((2 * k - 1) * np.pi / (2 * count))


def check_distinct(t: np.ndarray) -> None:
    """Raise DegenerateInputError unless the least gap between the line
    parameters t exceeds 1e-14 times their span, along the last axis: a
    stack (..., count) holds the parameters of one line per row."""
    srt = np.sort(t, axis=-1)
    if t.shape[-1] >= 2 and ((srt[..., 1:] - srt[..., :-1]).min(axis=-1) <= 1e-14 * (srt[..., -1] - srt[..., 0])).any():
        raise DegenerateInputError("interpolation nodes contain a (near-)duplicate pair")


def solve_univariate(t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Coefficients (c_0..c_k) of the unique degree <= k interpolant of the
    values c at the parameters t.

    Newton divided differences, computed in place in c (which is
    overwritten), followed by expansion into the monomial basis; O(k^2)
    arithmetic.  The parameters must be distinct (see check_distinct).
    """
    k = t.size - 1
    for j in range(1, k + 1):
        c[j:] = (c[j:] - c[j - 1 : -1]) / (t[j:] - t[: -j])
    out = np.zeros(k + 1)
    out[0] = c[k]
    for i in range(k - 1, -1, -1):
        out[1 : k - i + 1] = out[: k - i]
        out[0] = 0.0
        out[: k - i] -= t[i] * out[1 : k - i + 1]
        out[0] += c[i]
    return out


def solve_on_line(t: np.ndarray, values: np.ndarray, t0: float, direction: np.ndarray) -> np.ndarray:
    """The coefficients in m variables of the interpolant of values at the
    nodes of a line, whose parameters t(x) = t0 + <direction, x> are t;
    overwrites values."""
    return embed_univariate(solve_univariate(t, values), t0, direction)
