"""Reference maths for the benchmark's correctness checks.

Nothing here imports the package under test.  Coefficient vectors use the
package's documented layout (degree blocks ascending, and inside a block the
larger exponent on an earlier variable first), but the table and the
evaluator are built independently: each monomial is kept as its list of
variable factors, so its value at a point is a plain product of
coordinates, taken over row chunks so that no N x N matrix is ever held.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

# elements of one (rows x monomials) chunk; 2**20 float64 is 8 MiB
CHUNK_ELEMENTS = 1 << 20


class MonomialTable:
    """The monomials of degree <= n in m variables, in graded-lex order.

    factors[j] lists the variables whose product is monomial j, padded with
    the index m, which stands for the constant 1.
    """

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        rows = []
        for k in range(n + 1):
            block = [
                tuple(sorted(combo) + [m] * (n - k))
                for combo in combinations_with_replacement(range(m), k)
            ]
            # first variable dominant: compare exponent tuples descending
            block.sort(key=lambda row: [-row.count(a) for a in range(m)])
            rows.extend(block)
        self.factors = np.array(rows, dtype=np.intp).reshape(len(rows), n)

    def __len__(self) -> int:
        return self.factors.shape[0]

    def exponents(self) -> np.ndarray:
        """The (N, m) exponent table."""
        out = np.zeros((len(self), self.m + 1), dtype=np.intp)
        for t in range(self.n):
            np.add.at(out, (np.arange(len(self)), self.factors[:, t]), 1)
        return out[:, : self.m]

    def chunks(self, points: np.ndarray):
        """Yield (row slice, monomial values) for consecutive row chunks."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.m:
            raise ValueError(f"points must have shape (count, {self.m})")
        step = max(1, CHUNK_ELEMENTS // len(self))
        for lo in range(0, points.shape[0], step):
            rows = slice(lo, min(lo + step, points.shape[0]))
            padded = np.hstack([points[rows], np.ones((rows.stop - lo, 1))])
            values = np.ones((rows.stop - lo, len(self)))
            for t in range(self.n):
                values *= padded[:, self.factors[:, t]]
            yield rows, values

    def matrix(self, points) -> np.ndarray:
        """The full Vandermonde matrix; for small node sets only."""
        return np.vstack([values for _, values in self.chunks(points)])

    def evaluate(self, points, coeffs) -> np.ndarray:
        """Values of the polynomial with these coefficients at every point."""
        coeffs = np.asarray(coeffs, dtype=float)
        out = np.empty(np.shape(points)[0])
        for rows, values in self.chunks(points):
            out[rows] = values @ coeffs
        return out

    def residual(self, points, coeffs, fvalues) -> float:
        """Worst relative misfit |p(x) - f(x)| / (sum_j |c_j x^j| + |f(x)|).

        The scale is what the evaluation itself can resolve, so the figure
        stays meaningful when monomials are large and cancel.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        fvalues = np.asarray(fvalues, dtype=float)
        worst = 0.0
        for rows, values in self.chunks(points):
            misfit = np.abs(values @ coeffs - fvalues[rows])
            scale = np.abs(values) @ np.abs(coeffs) + np.abs(fvalues[rows])
            worst = max(worst, float((misfit / scale).max()))
        return worst

    def point_function(self, coeffs):
        """A callback p -> polynomial value at one point."""
        coeffs = np.asarray(coeffs, dtype=float)
        factors = self.factors
        one = np.ones(1)

        def f(p):
            padded = np.concatenate([p, one])
            return float(np.prod(padded[factors], axis=1) @ coeffs)

        return f


def runge(center, width: float):
    """A Runge-type callback 1 / (1 + |p - center|^2 / width^2), and its vector form."""
    center = np.asarray(center, dtype=float)
    inv = 1.0 / (width * width)

    def f(p):
        d = p - center
        return 1.0 / (1.0 + float(d @ d) * inv)

    def on_points(points):
        d = np.asarray(points, dtype=float) - center
        return 1.0 / (1.0 + np.einsum("ij,ij->i", d, d) * inv)

    return f, on_points


def circle_points(count: int, phase: float = 0.3) -> np.ndarray:
    """count points on the unit circle; six or more make V(2,2) singular."""
    theta = phase + 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([np.cos(theta), np.sin(theta)])
