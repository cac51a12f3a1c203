"""Dense multivariate polynomials over the canonical monomial order.

A polynomial lives in ``m`` variables with a structural degree bound ``n``
and a coefficient vector of length N(m,n) laid out per
:mod:`mvinterp.monomials`.  The solver's lifts work on raw coefficient
arrays: mul_linear multiplies by a linear row [c0, normal], and
embed_univariate turns a polynomial in a line parameter into one in m
variables by such lifts.  Operations return new values, and nothing here
mutates its inputs, except that mul_linear adds into an out given it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .monomials import build_order, count_total

__all__ = [
    "MultiPoly",
    "evaluate",
    "evaluate_rows",
    "row_kernel",
    "mul_linear",
    "embed_univariate",
]


def _real_array(values, name: str) -> np.ndarray:
    """values as a float array; a complex dtype raises ValueError, as the cast would drop its imaginary part."""
    values = np.asarray(values)
    if values.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got dtype {values.dtype}")
    return values.astype(float, copy=False)


@dataclass(slots=True)
class MultiPoly:
    """Dense polynomial of degree <= n in m variables.

    Attributes
    ----------
    m : int
        Number of variables.
    n : int
        Structural degree bound; ``coeffs`` has length N(m,n).
    coeffs : numpy.ndarray
        Coefficients in canonical monomial order, dtype float64; complex
        coefficients raise ValueError.
    """

    m: int
    n: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.coeffs = _real_array(self.coeffs, "coefficients")
        expected = count_total(self.m, self.n)
        if self.coeffs.shape != (expected,):
            raise ValueError(
                f"coefficient vector has shape {self.coeffs.shape}, "
                f"expected ({expected},) for (m={self.m}, n={self.n})"
            )

    @classmethod
    def zero(cls, m: int, n: int) -> "MultiPoly":
        return cls(m, n, np.zeros(count_total(m, n)))


def evaluate(q: MultiPoly, x) -> float:
    """Evaluate q at an m-vector: row_kernel on a single row; a complex
    point raises ValueError, as the cast would drop its imaginary part."""
    xv = _real_array(x, "points")
    if xv.shape != (q.m,):
        raise ValueError(f"point has shape {xv.shape}, expected ({q.m},)")
    return float(row_kernel(q, xv[np.newaxis])[0])


@lru_cache(maxsize=128)
def _row_steps(m: int, n: int) -> tuple:
    """(block_k, var[block_k], parent[block_k]) for each degree k = 1..n."""
    order = build_order(m, n)
    blocks = [order.block(k) for k in range(1, n + 1)]
    return tuple((blk, order.var[blk], order.parent[blk]) for blk in blocks)


def evaluate_rows(q: MultiPoly, points) -> np.ndarray:
    """Evaluate q at every row of a (count, m) array.

    Each row's monomial values are built in one reused buffer, degree block
    by degree block, from the parent recursion value[I] = x[j] * value[I - e_j],
    then dotted with the coefficients: 2·N(m,n) floating operations per row.
    Degree 1 is x itself (x[j] * 1.0 is x[j]), taken into the buffer, and
    the top block, the largest, is gathered from x into the buffer itself,
    so a row allocates one block-sized temporary (its parents' values), not
    two.  The blocks between keep the plain product: take's call costs more
    than the copy it saves on a small block.  Complex points raise ValueError.
    """
    points = _real_array(points, "points")
    if points.ndim != 2 or points.shape[1] != q.m:
        raise ValueError(f"points have shape {points.shape}, expected (count, {q.m})")
    return row_kernel(q, points)


def row_kernel(q: MultiPoly, points: np.ndarray) -> np.ndarray:
    """evaluate_rows without its check, at the first q.m columns of a float (count, >= q.m) array."""
    vals = np.empty(q.coeffs.size)
    vals[0] = 1.0
    steps = [(vals[blk], var, parent) for blk, var, parent in _row_steps(q.m, q.n)]
    first, axes, _ = steps.pop(0) if steps else (None, None, None)
    # a one-monomial top block keeps the plain product: NumPy allocates 1 KiB to multiply one element in place
    top = steps.pop() if steps and steps[-1][0].size > 1 else None
    coeffs = q.coeffs
    out = np.empty(len(points))
    for i, x in enumerate(points):
        if first is not None:
            x.take(axes, out=first, mode="wrap")
        for block, var, parent in steps:
            np.multiply(x[var], vals[parent], out=block)
        if top is not None:
            block, var, parent = top
            x.take(var, out=block, mode="wrap")  # var < m: "wrap" only skips take's buffer
            np.multiply(block, vals[parent], out=block)
        out[i] = vals @ coeffs
    return out


def mul_linear(qc: np.ndarray, row: np.ndarray, order, out: np.ndarray | None = None) -> np.ndarray:
    """Coefficients, in order, of qc times the linear row[0] + <row[1:], x>.

    qc holds the leading coefficients of a polynomial of degree < order.n.
    One scaled copy for the constant part, then one scatter-add along the
    lift table of each variable with a non-zero coefficient, in axis order;
    a coefficient of exactly 1 adds qc itself, unscaled.  That saves a copy
    of qc where a solve's last lift sets its peak.  Given out, it adds into out.
    """
    nq = qc.size
    if out is None:
        out = np.zeros(len(order))
    out[:nq] += row[0] * qc
    for a, la in enumerate(row[1:].tolist()):
        if la == 1.0:  # qc itself, the same bits as 1.0 * qc without its copy
            out[order.lift(a)[:nq]] += qc
        elif la != 0.0:
            out[order.lift(a)[:nq]] += la * qc
    return out


def embed_univariate(chat: np.ndarray, t0: float, direction: np.ndarray) -> np.ndarray:
    """The coefficients in m variables of sum chat[i] * t(x)^i, with
    t(x) = t0 + <direction, x>, by Horner's rule over k linear lifts."""
    m = direction.size
    deg = chat.size - 1
    t_row = np.concatenate(([t0], direction))
    acc = np.array([float(chat[deg])])
    for i in range(deg - 1, -1, -1):
        acc = mul_linear(acc, t_row, build_order(m, deg - i))
        acc[0] += chat[i]
    return acc
