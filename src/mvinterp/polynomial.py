"""Dense multivariate polynomials over the canonical monomial order.

A polynomial lives in ``m`` variables with a structural degree bound ``n``
and a coefficient vector of length N(m,n) laid out per
:mod:`mvinterp.monomials`.  Operations return new values; nothing here
mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .monomials import build_order, count_total

__all__ = [
    "MultiPoly",
    "evaluate",
    "add",
    "mul_linear",
    "embed_univariate",
]


@dataclass
class MultiPoly:
    """Dense polynomial of degree <= n in m variables.

    Attributes
    ----------
    m : int
        Number of variables.
    n : int
        Structural degree bound; ``coeffs`` has length N(m,n).
    coeffs : numpy.ndarray
        Coefficients in canonical monomial order, dtype float64.
    """

    m: int
    n: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        expected = count_total(self.m, self.n)
        if self.coeffs.shape != (expected,):
            raise ValueError(
                f"coefficient vector has shape {self.coeffs.shape}, "
                f"expected ({expected},) for (m={self.m}, n={self.n})"
            )

    @classmethod
    def zero(cls, m: int, n: int) -> "MultiPoly":
        return cls(m, n, np.zeros(count_total(m, n)))

    @classmethod
    def constant(cls, m: int, value: float, n: int = 0) -> "MultiPoly":
        c = np.zeros(count_total(m, n))
        c[0] = value
        return cls(m, n, c)

    @property
    def order(self):
        return build_order(self.m, self.n)

    def effective_degree(self, tol: float = 0.0) -> int:
        """Largest k whose degree-k coefficient block is not all |c| <= tol."""
        order = self.order
        for k in range(self.n, 0, -1):
            if np.any(np.abs(self.coeffs[order.block(k)]) > tol):
                return k
        return 0

    def copy(self) -> "MultiPoly":
        return MultiPoly(self.m, self.n, self.coeffs.copy())


def evaluate(q: MultiPoly, x) -> float:
    """Evaluate q at an m-vector.

    Monomial values are built degree block by degree block from the parent
    recursion value[I] = x[j] * value[I - e_j], then dotted with the
    coefficients: 2·N(m,n) floating operations per call.
    """
    xv = np.asarray(x, dtype=float)
    if xv.shape != (q.m,):
        raise ValueError(f"point has shape {xv.shape}, expected ({q.m},)")
    order = q.order
    vals = np.empty(len(order))
    vals[0] = 1.0
    var, parent = order.var, order.parent
    for k in range(1, q.n + 1):
        blk = order.block(k)
        vals[blk] = xv[var[blk]] * vals[parent[blk]]
    return float(vals @ q.coeffs)


def add(q1: MultiPoly, q2: MultiPoly) -> MultiPoly:
    """Sum of two polynomials; the result bound is max(n1, n2).

    The graded layout makes the lower-degree coefficient vector a prefix of
    the higher-degree one, so alignment is a prefix embed.
    """
    if q1.m != q2.m:
        raise ValueError(f"dimension mismatch: {q1.m} vs {q2.m}")
    lo, hi = (q1, q2) if q1.n <= q2.n else (q2, q1)
    out = hi.coeffs.copy()
    out[: lo.coeffs.size] += lo.coeffs
    return MultiPoly(q1.m, hi.n, out)


def _linear_parts(l: MultiPoly):
    """Constant and per-variable coefficients of a degree <= 1 polynomial."""
    if l.n > 1 and l.effective_degree() > 1:
        raise ValueError("factor must have effective degree <= 1")
    c0 = float(l.coeffs[0])
    if l.n >= 1:
        lin = l.coeffs[1 : 1 + l.m]
    else:
        lin = np.zeros(l.m)
    return c0, lin


def mul_linear(q: MultiPoly, l: MultiPoly, n_out: int | None = None) -> MultiPoly:
    """Product of q with a degree <= 1 factor.

    Cost is proportional to (m+1)·N(m, deg q): one scaled copy for the
    constant part plus one scatter-add per variable along the lift tables.
    The coefficients are scanned for their actual degrees only when the
    structural bounds q.n and l.n do not already fit the result.

    Parameters
    ----------
    n_out : int, optional
        Structural bound of the result (default q.n + 1).  Requesting a
        bound too small for the actual product raises ValueError.
    """
    if q.m != l.m:
        raise ValueError(f"dimension mismatch: {q.m} vs {l.m}")
    c0, lin = _linear_parts(l)
    if n_out is None:
        n_out = q.n + 1
    deg_q = q.n
    if q.n + min(l.n, 1) > n_out:
        # the structural bound does not fit; the actual degrees decide
        deg_q = q.effective_degree()
        needed = deg_q + (1 if np.any(lin != 0.0) else 0)
        if n_out < needed:
            raise ValueError(
                f"product has degree {needed} but the requested bound is {n_out}"
            )
    out_order = build_order(q.m, n_out)
    out = np.zeros(len(out_order))
    nq = count_total(q.m, deg_q)
    qc = q.coeffs[:nq]
    out[:nq] += c0 * qc
    for a in range(q.m):
        if lin[a] == 0.0:
            continue
        out[out_order.lift(a)[:nq]] += lin[a] * qc
    return MultiPoly(q.m, n_out, out)


def embed_univariate(chat, line_dir, base) -> MultiPoly:
    """Lift univariate coefficients along a line into m variables.

    Given coefficients (c_0..c_k) of a polynomial in the line parameter
    t(x) = <x - base, line_dir>, returns sum c_i * t(x)^i as a MultiPoly,
    evaluated by Horner's rule over repeated linear multiplication.  The
    direction must have unit norm within 1e-12.
    """
    chat = np.asarray(chat, dtype=float)
    xi = np.asarray(line_dir, dtype=float)
    b = np.asarray(base, dtype=float)
    if abs(np.linalg.norm(xi) - 1.0) > 1e-12:
        raise ValueError("line direction must have unit norm (within 1e-12)")
    m = xi.size
    deg = chat.size - 1
    if deg < 0:
        raise ValueError("need at least one coefficient")
    t_coeffs = np.zeros(count_total(m, 1))
    t_coeffs[0] = -float(xi @ b)
    t_coeffs[1 : 1 + m] = xi
    t_poly = MultiPoly(m, 1, t_coeffs)
    acc = MultiPoly.constant(m, float(chat[deg]))
    for i in range(deg - 1, -1, -1):
        acc = mul_linear(acc, t_poly, n_out=deg - i)
        acc.coeffs[0] += chat[i]
    return acc
