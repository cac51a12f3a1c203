"""Enumeration of multivariate monomials in the package's canonical order.

Every dense coefficient vector in this package is laid out in the same
graded order: multi-indices are grouped by ascending total degree
k = 0..n, and inside a degree block they are sorted so that a larger
exponent on an earlier variable comes first, e.g. for m = 2, k = 2:
(2,0), (1,1), (0,2).  Positions are 0-based; the constant term is
position 0 and x_m^n is position N(m,n)-1.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .exceptions import SizingError

_INT_MAX = 2**63 - 1


def count_total(m: int, n: int) -> int:
    """Number of monomials of degree <= n in m variables, C(m+n, m).

    Parameters
    ----------
    m : int
        Number of variables, >= 1.
    n : int
        Degree bound, >= 0.

    Raises
    ------
    SizingError
        If the count does not fit a 64-bit signed integer.
    """
    if m < 1:
        raise ValueError(f"dimension m must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"degree n must be >= 0, got {n}")
    total = comb(m + n, m)
    if total > _INT_MAX:
        raise SizingError(
            f"monomial count for (m={m}, n={n}) is {total}, "
            "which exceeds the supported 64-bit range"
        )
    return total


def count_degree(m: int, k: int) -> int:
    """Number of monomials of exact degree k in m variables.

    Equals C(m+k, m) - C(m+k-1, m); the subtrahend is 0 for k = 0.
    """
    if m < 1:
        raise ValueError(f"dimension m must be >= 1, got {m}")
    if k < 0:
        raise ValueError(f"degree k must be >= 0, got {k}")
    if k == 0:
        return 1
    total = comb(m + k, m) - comb(m + k - 1, m)
    if total > _INT_MAX:
        raise SizingError(
            f"degree-{k} monomial count for m={m} exceeds the supported range"
        )
    return total


def _degree_indices(m: int, k: int):
    """Yield all exponent tuples of total degree k, first variable dominant."""
    if m == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        for rest in _degree_indices(m - 1, k - first):
            yield (first,) + rest


class MonomialOrder:
    """Immutable table of multi-indices of degree <= n in canonical order.

    Besides the table itself, the object caches the index arrays used for
    fast evaluation and linear-factor multiplication:

    - ``var[i]``/``parent[i]``: for position i > 0, the first variable with a
      nonzero exponent and the position of the multi-index with that exponent
      reduced by one.  Monomial values then satisfy
      ``value[i] = point[var[i]] * value[parent[i]]``.
    - ``lift(a)``: position of I + e_a for every I of degree <= n-1, used to
      scatter-add the product of a polynomial with a degree-1 factor.
    """

    __slots__ = ("m", "n", "table", "_pos", "_blocks", "_var", "_parent", "_lift")

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        count_total(m, n)  # sizing guard
        table = []
        blocks = []
        start = 0
        for k in range(n + 1):
            block = list(_degree_indices(m, k))
            table.extend(block)
            blocks.append(slice(start, start + len(block)))
            start += len(block)
        self.table = tuple(table)
        self._blocks = tuple(blocks)
        self._pos = {idx: i for i, idx in enumerate(table)}
        self._var = None
        self._parent = None
        self._lift = {}

    def __len__(self) -> int:
        return len(self.table)

    def block(self, k: int) -> slice:
        """Slice of positions holding the degree-k block."""
        return self._blocks[k]

    def index(self, idx: tuple) -> int:
        return self._pos[idx]

    def _build_var_parent(self) -> None:
        var = np.zeros(len(self.table), dtype=np.intp)
        parent = np.zeros(len(self.table), dtype=np.intp)
        for i, idx in enumerate(self.table):
            if i == 0:
                continue
            j = next(a for a, e in enumerate(idx) if e > 0)
            reduced = idx[:j] + (idx[j] - 1,) + idx[j + 1 :]
            var[i] = j
            parent[i] = self._pos[reduced]
        self._var = var
        self._parent = parent

    @property
    def var(self) -> np.ndarray:
        if self._var is None:
            self._build_var_parent()
        return self._var

    @property
    def parent(self) -> np.ndarray:
        if self._parent is None:
            self._build_var_parent()
        return self._parent

    def lift(self, axis: int) -> np.ndarray:
        """Positions of I + e_axis for all I of degree <= n-1."""
        cached = self._lift.get(axis)
        if cached is not None:
            return cached
        upto = self._blocks[self.n].start if self.n >= 1 else 0
        out = np.empty(upto, dtype=np.intp)
        for i in range(upto):
            idx = self.table[i]
            lifted = idx[:axis] + (idx[axis] + 1,) + idx[axis + 1 :]
            out[i] = self._pos[lifted]
        self._lift[axis] = out
        return out


@lru_cache(maxsize=128)
def build_order(m: int, n: int) -> MonomialOrder:
    """Canonical monomial order for degree <= n in m variables (cached)."""
    return MonomialOrder(m, n)


def position_of(order: MonomialOrder, idx: tuple) -> int:
    """Position of a multi-index in the order's table.

    Raises
    ------
    ValueError
        If the index has the wrong length or its degree exceeds the bound.
    """
    idx = tuple(int(e) for e in idx)
    if len(idx) != order.m:
        raise ValueError(f"multi-index length {len(idx)} does not match m={order.m}")
    if any(e < 0 for e in idx):
        raise ValueError(f"multi-index {idx} has a negative exponent")
    if sum(idx) > order.n:
        raise ValueError(
            f"multi-index {idx} has degree {sum(idx)} > bound n={order.n}"
        )
    return order.index(idx)
