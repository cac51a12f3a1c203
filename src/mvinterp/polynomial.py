"""Dense multivariate polynomials over the canonical monomial order.

A polynomial lives in ``m`` variables with a structural degree bound ``n``
and a coefficient vector of length N(m,n) laid out per
:mod:`mvinterp.monomials`.  The solver's lifts work on raw coefficient
arrays: mul_linear multiplies by a linear function c0 + <normal, x>, read
as c0 and the (axis, coefficient) pairs of the normal's non-zero entries
(linear_terms), through one order's lift table for every degree, and
embed_univariate turns a polynomial in a line parameter into one in m
variables by such lifts.  Its corrections evaluate a polynomial at rows:
row_kernel builds each row's monomials, and restricted_kernel, for the rows
of a line or an axis flat, the polynomial restricted to it, once per call.
Operations return new values, and nothing here
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
    "restricted_kernel",
    "linear_terms",
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


def restricted_kernel(q: MultiPoly, d: int, points: np.ndarray) -> np.ndarray:
    """row_kernel's values of q at the rows of a line or a flat that agree
    from coordinate d on: a line's (d = 1) in any x_0, a flat's its base,
    zero before d, then the base plus y_i e_i for i < d.

    Row z + y e_a, z its coordinates from d on (zero before), lies on a line
    along axis a < d, where q is S_0 + sum_j y^j S[j, a]: S_0 sums
    c[M] M(z) over the suffix monomials M, those in the variables d..m-1,
    and S[j, a] sums c[x_a^j M] M(z).  So one monomial row of the suffix at
    z, N(m - d, n) reals, its dot with the suffix's coefficients block by
    block, and per j one gather of the coefficients at the positions of the
    x_a^j M (MonomialOrder.powers) and one product replace a full monomial
    row per row; Horner's rule in y then gives each row.  A float
    (count, m) array of rows.
    """
    m, n, coeffs = q.m, q.n, q.coeffs
    order = build_order(m, n)
    pairs = order.suffix(d)
    z = points[0, d:]
    if d == m:  # the suffix holds the constant alone
        u = np.ones(1)
    else:  # row_kernel's recurrence at z: degree 1 is z, the top block gathered in place
        u = np.empty(count_total(m - d, n))
        u[0], u[1 : m - d + 1] = 1.0, z
        *steps, (blk, var, parent) = _row_steps(m - d, n)
        for b, v, p in steps[1:]:
            np.multiply(z[v], u[p], out=u[b])
        top = u[blk]
        z.take(var, out=top, mode="wrap")
        top *= u[parent]
    s0 = coeffs[pairs[0][0].start]  # the constant's
    for here, own in pairs[1:]:
        s0 += np.dot(coeffs[here], u[own])
    sums, powers = np.empty((n, d)), order.powers(d)  # sums[j] is S[j + 1]: its M of degree <= n - 1 - j
    for j in range(n):
        np.dot(coeffs[powers[j]], u[: pairs[n - 1 - j][1].stop], out=sums[j])
    del u
    # a line's rows lie along x_0; a flat's first row is its base, y = 0, and row i + 1 lies along x_i
    y, along = (points[:, 0], sums[:, 0]) if d == 1 else (points[1:, :d].diagonal(), sums)
    value = along[n - 1] * y  # Horner's rule in y
    for j in range(n - 2, -1, -1):
        value += along[j]
        value *= y
    if d == 1:
        value += s0
        return value
    out = np.empty(d + 1)
    out[0] = s0
    np.add(value, s0, out=out[1:])
    return out


def linear_terms(normal) -> tuple:
    """The (axis, coefficient) pairs of a normal's non-zero entries, in axis
    order, as Python numbers: with a constant c0, (c0, pairs) is the linear
    function c0 + <normal, x> in the form mul_linear reads."""
    return tuple((a, la) for a, la in enumerate(np.asarray(normal, dtype=float).tolist()) if la != 0.0)


def mul_linear(qc: np.ndarray, row: tuple, lifts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of qc times the linear function row = (c0, pairs),
    c0 + sum la x_a over the (axis, coefficient) pairs of linear_terms.

    qc holds the coefficients of a polynomial of degree k - 1 in m variables
    and lifts the lift table of an order (m, n) with n >= k (see
    MonomialOrder.lifts), whose rows begin with those of every lower degree:
    the product's N(m, k) coefficients end at the lift of qc's last
    monomial, x_{m-1}^{k-1}, by x_{m-1}.  Zeros, then the constant part
    added, then one scatter-add per pair, in axis order; a coefficient of
    exactly 1 adds qc itself, unscaled.  That saves a copy of qc where a
    solve's last lift sets its peak.  Given out, it adds into out.
    """
    c0, pairs = row
    nq = qc.size
    if out is None:
        out = np.zeros(lifts[-1, nq - 1] + 1)
    out[:nq] += c0 * qc
    for a, la in pairs:
        if la == 1.0:  # qc itself, the same bits as 1.0 * qc without its copy
            out[lifts[a, :nq]] += qc
        else:
            out[lifts[a, :nq]] += la * qc
    return out


def embed_univariate(chat: np.ndarray, t0: float, direction: tuple, lifts: np.ndarray) -> np.ndarray:
    """The coefficients in m variables of sum chat[i] * t(x)^i, with
    t(x) = t0 + <direction, x> and direction given by its pairs (see
    linear_terms), by Horner's rule over k lifts by mul_linear through
    lifts, the lift table of an order of m variables and degree >= k."""
    deg = chat.size - 1
    t_row = (t0, direction)
    acc = np.array([float(chat[deg])])
    for i in range(deg - 1, -1, -1):
        acc = mul_linear(acc, t_row, lifts)
        acc[0] += chat[i]
    return acc
