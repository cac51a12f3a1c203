"""One-dimensional interpolation on an affine line in m-space.

Chebyshev parameters for the nodes on a line, and the line leaf's solve:
a Newton divided-difference solve in the line parameter t (solve_univariate)
followed by the lift of the result back to m variables, with
t(x) = t0 + <direction, x> (solve_on_line), through one order's lift table.
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


def solve_univariate(t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Coefficients (c_0..c_k) of the unique degree <= k interpolant of the
    values c at the parameters t, which must be distinct.

    Newton divided differences, then their expansion into the monomial basis,
    in one list of Python floats: O(k^2) arithmetic without a NumPy call per
    step, each operation and its order those of a slice-wise NumPy loop, so
    the same bits.  The inputs are unchanged; equal parameters raise
    DegenerateInputError naming the pair.
    """
    t, c = np.asarray(t, float).tolist(), np.asarray(c, float).tolist()
    k = len(t) - 1
    try:
        for j in range(1, k + 1):
            for i in range(k, j - 1, -1):  # downward, so c[i - 1] is still of order j - 1
                c[i] = (c[i] - c[i - 1]) / (t[i] - t[i - j])
    except ZeroDivisionError:
        raise DegenerateInputError(f"line parameters {i - j} and {i} are equal: {t[i]!r}") from None
    for i in range(k - 1, -1, -1):  # c[i + 1:], the result so far, times (t - t[i]), plus c[i]
        ti = t[i]
        c[i] = 0.0 - ti * c[i + 1] + c[i]
        for j in range(i + 1, k):
            c[j] = c[j] - ti * c[j + 1]
    return np.array(c)


def solve_on_line(t: np.ndarray, values: np.ndarray, t0: float, direction: tuple, lifts: np.ndarray) -> np.ndarray:
    """The coefficients in m variables of the interpolant of values at the
    nodes of a line, whose parameters t(x) = t0 + <direction, x> are t, the
    direction given by its pairs; see solve_univariate, and embed_univariate
    for the lift through lifts, a lift table of degree >= len(t) - 1."""
    return embed_univariate(solve_univariate(t, values), t0, direction, lifts)
