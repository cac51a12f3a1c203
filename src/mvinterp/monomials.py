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


class MonomialOrder:
    """Immutable table of multi-indices of degree <= n in canonical order.

    The order is one integer table, ``step[k, a]``.  Block k is made
    variable by variable: for each a, it is x_a times the suffix of block
    k - 1 that uses only variables a and later, so x_a times the monomial
    at position i of that suffix lands at position i + step[k, a].  The
    rest is derived from the table:

    - ``var[i]``/``parent[i]``: for position i > 0, the first variable with a
      nonzero exponent and the position of the multi-index with that exponent
      reduced by one, i - step[k, var[i]].  Monomial values then satisfy
      ``value[i] = point[var[i]] * value[parent[i]]``.
    - ``lifts()``: row a holds the position of I + e_a for every I of degree
      <= n-1, used to scatter-add the product of a polynomial with a
      degree-1 factor; ``lift(a)`` is row a.  It is I + step[k, a] where
      a <= var[I], and else, as x_a I = x_var[I] x_a parent[I], the lift of
      parent[I] plus step[k, var[I]].  Positions do not depend on n, so the
      (m, k) order's lift(a) is the prefix N(m, k - 1) of this one's, and
      one table serves every degree up to n (see mul_linear).  The table,
      m N(m, n - 1) integers, is built on the first read, so an order read
      only for its recurrence (var, parent, blocks) never holds it.
    - ``head(p)``: where the (p, n) order's monomials are, each the lift of its parent.
    - ``suffix(d)``: where the monomials in the variables d..m-1 are, the
      last of each degree block, in the (m - d, n) order's own order; and
      ``powers(d)``: where the x_a^j M, a < d, are, each M's lift j times
      by x_a.  A restricted correction reads these (see restricted_kernel).
      Kept per d, powers(d) holds d N(m - d + 1, n - 1) integers in n
      arrays: 5.0 N(m, n) over every d at (20, 4), 4.0 N(m, n) at (15, 4).
    - ``runs(k)``: for each a, block k's positions with var = a, which end at
      start + step[k, a], next to their parents, the suffix of block k - 1.
    - ``table`` rebuilds every multi-index from var and parent when read.
    """

    __slots__ = ("m", "n", "var", "parent", "_step", "_blocks", "_lifts", "_heads", "_suffixes", "_powers")

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        total = count_total(m, n)  # sizing guard
        axes = np.arange(m)
        # width[k, a]: monomials of degree k - 1 in the variables a..m-1, none for k = 0
        width = np.array(
            [[count_degree(m - a, k - 1) if k else 0 for a in range(m)] for k in range(n + 1)],
            dtype=np.intp,
        )
        self._step = step = np.cumsum(width, axis=1)
        sizes = [1, *step[1:, -1].tolist()]  # block k holds step[k, m - 1] monomials
        self._blocks = tuple(slice(end - size, end) for size, end in zip(sizes, np.cumsum(sizes).tolist()))
        self.var = np.concatenate(([0], np.repeat(np.tile(axes, n + 1), width.ravel())))
        self.parent = np.arange(total) - step[np.repeat(np.arange(n + 1), sizes), self.var]
        self._lifts, self._heads, self._suffixes, self._powers = None, {}, {}, {}

    def lifts(self) -> np.ndarray:
        """The (m, N(m, n - 1)) table of every lift, built on first read: an
        order read only for its recurrence (see row_kernel) never holds it."""
        if self._lifts is None:
            axes, step = np.arange(self.m), self._step
            self._lifts = lifts = np.empty((self.m, self._blocks[-1].start), dtype=np.intp)
            lifts[:, :1] = 1 + axes[:, None]  # x_a is position 1 + a
            for k, blk in enumerate(self._blocks[1 : self.n], 1):
                var = self.var[blk]
                lifts[:, blk] = np.where(
                    axes[:, None] <= var,
                    np.arange(blk.start, blk.stop) + step[k + 1, :, None],
                    lifts[:, self.parent[blk]] + step[k + 1, var],
                )
        return self._lifts

    def __len__(self) -> int:
        return self.var.size

    def block(self, k: int) -> slice:
        """Slice of positions holding the degree-k block."""
        return self._blocks[k]

    def head(self, p: int) -> np.ndarray:
        """Positions of the monomials of build_order(p, n), in its order: those in the first p variables."""
        if p not in self._heads:
            sub = build_order(p, self.n)
            self._heads[p] = heads = np.zeros(len(sub), dtype=np.intp)
            for blk in sub._blocks[1:]:
                heads[blk] = self.lifts()[sub.var[blk], heads[sub.parent[blk]]]
        return self._heads[p]

    def suffix(self, d: int) -> tuple:
        """Per degree k = 0..n, the slice of this order holding the monomials
        in the variables d..m-1, the block's last ones, and the slice of the
        (m - d, n) order holding the same monomials, in the same order; d = m
        leaves the constant alone."""
        if d not in self._suffixes:
            sizes = [count_degree(self.m - d, k) for k in range(self.n + 1)] if d < self.m else [1] + [0] * self.n
            ends = np.cumsum(sizes).tolist()
            self._suffixes[d] = tuple(
                (slice(blk.stop - size, blk.stop), slice(end - size, end))
                for blk, size, end in zip(self._blocks, sizes, ends)
            )
        return self._suffixes[d]

    def powers(self, d: int) -> tuple:
        """Positions of x_a^j M for a < d and M in the variables d..m-1 of
        degree <= n - j, one (d, N(m - d, n - j)) array per j = 1..n: the
        suffix (see suffix) below degree n lifted by each x_a, then each
        block's first N(m - d, n - j - 1) columns lifted again."""
        if d not in self._powers:
            pairs, blocks = self.suffix(d), []
            pos = np.concatenate([np.arange(here.start, here.stop) for here, _ in pairs])[: pairs[-1][1].start]
            for j in range(1, self.n + 1):
                pos = self.lifts()[np.arange(d)[:, None], pos[..., : pairs[self.n - j][1].stop]]
                blocks.append(pos)
            self._powers[d] = tuple(blocks)
        return self._powers[d]

    def runs(self, k: int) -> list:
        """(run, parents) slice pairs of the degree-k block, k >= 1, one per
        variable a in order: run holds the positions whose var is a, and
        parents the suffix of block k - 1 that run multiplies by x_a."""
        start = self._blocks[k].start  # where block k - 1 stops
        bounds = [0, *self._step[k].tolist()]
        return [
            (slice(start + lo, start + hi), slice(start - hi + lo, start)) for lo, hi in zip(bounds, bounds[1:])
        ]

    @property
    def table(self) -> tuple:
        """Every multi-index as a tuple of exponents, in order."""
        unit = np.eye(self.m, dtype=np.intp)
        exps = np.zeros((len(self), self.m), dtype=np.intp)
        for blk in self._blocks[1:]:
            exps[blk] = exps[self.parent[blk]] + unit[self.var[blk]]
        return tuple(map(tuple, exps.tolist()))

    def lift(self, axis: int) -> np.ndarray:
        """Positions of I + e_axis for all I of degree <= n-1."""
        return self.lifts()[axis]


@lru_cache(maxsize=128)
def build_order(m: int, n: int) -> MonomialOrder:
    """Canonical monomial order for degree <= n in m variables (cached)."""
    return MonomialOrder(m, n)
