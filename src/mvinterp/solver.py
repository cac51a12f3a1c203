"""Recursive interpolation solver over the decomposition tree.

The solver walks the tree depth-first, dimension-reduction branch first.
Every leaf is a problem it can solve directly: a univariate Chebyshev
problem on a line, or a degree-1 problem on a flat.  A problem without a
tree (n = 0, m = 1 or n = 1) is one such leaf with no divisors.

f is read exactly once per node: an array of node values is sliced by
leaf, a callback is called on a leaf's rows when the walk reaches it, and
a non-finite value is rejected.  Each leaf then corrects its block of
values in one call, (f - correction) / divisor product, where the
correction is the sum of the contributions of all previously solved
leaves and the divisors are the split-hyperplane linears crossed on bit-0
edges on the way down.  Each leaf solution, multiplied back by its
divisors, lands in one shared accumulator, which at the end of the walk
is the interpolant itself.

The corrected function is never expanded symbolically; only its values on
the current leaf exist.  Together with the factored divisor products this
caps tracked storage at a small multiple of m * N(m,n).

Operation counts are analytic, derived from structural block sizes, so
two runs with the same (m, n, config) report identical counts whatever
values f takes.  Per convention, a fused multiply-add, a lone multiply,
and a division each count as one operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import GeometryConfigError
from .instrument import Tally
from .linear import FlatSpec, solve_linear
from .monomials import count_total
from .nodes import assemble_generic, leaf_slices
from .polynomial import MultiPoly, evaluate, mul_linear
from .tree import eps_label, vertex_base
from .univariate import LineSpec, solve_on_line

__all__ = [
    "SolveConfig",
    "corrected_value",
    "solve",
    "DIVISION_RTOL",
]

# a divisor this close to zero (relative to the magnitudes entering it)
# means a node nearly lies on a hyperplane another branch divides by
DIVISION_RTOL = 1e-12


@dataclass
class SolveConfig:
    """Geometry knobs for a solve: node frame, offset base, spread, shift."""

    frame: np.ndarray | None = None
    lam: Fraction = Fraction(2)
    kappa: float = 1.0
    mu: np.ndarray | None = None


def corrected_value(
    values, correction: MultiPoly, divisors, points, tally: Tally | None = None
) -> np.ndarray:
    """The corrected function (f - correction) / divisor product on a block.

    values holds f at the rows of points; divisors are (label, degree-1
    polynomial) pairs, one per bit-0 edge on the path from the root.

    Raises
    ------
    GeometryConfigError
        When a divisor factor at a node falls below DIVISION_RTOL relative
        to the magnitudes entering it: the node configuration puts that
        node too close to a hyperplane this subproblem divides by.
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[1]
    numerator = np.asarray(values, dtype=float) - [evaluate(correction, p) for p in points]
    const = np.array([factor.coeffs[0] for _, factor in divisors])[:, np.newaxis]
    lin = np.array([factor.coeffs[1:] for _, factor in divisors]).reshape(len(divisors), m)
    factors = const + lin @ points.T  # divisor by node
    scales = np.abs(const) + np.abs(lin) @ np.abs(points).T
    close = np.abs(factors) <= DIVISION_RTOL * scales
    if close.any():
        node, which = np.argwhere(close.T)[0]
        raise GeometryConfigError(
            f"node {np.array2string(points[node], precision=6)} lies within "
            f"{abs(factors[which, node]):.3e} of splitting hyperplane "
            f"{divisors[which][0]} (scale {scales[which, node]:.3e}); the "
            "lambda/kappa configuration is ill posed"
        )
    if tally is not None:
        total = count_total(correction.m, correction.n)
        tally.add_ops(points.shape[0] * (2 * total + (m + 1) * len(divisors) + 1))
    return numerator / np.prod(factors, axis=0)


def _finite(values: np.ndarray, first: int = 0) -> np.ndarray:
    """Return values after checking that every entry is finite.

    values[0] is node number first, which the error message counts from.
    """
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(
            f"f is not finite at node {first + bad[0]}: {float(values[bad[0]])}"
        )
    return values


def solve(f, m: int, n: int, config: SolveConfig | None = None, tally: Tally | None = None):
    """Interpolate f with the unique degree <= n polynomial on generated nodes.

    f is a callback on m-vectors, or an array of N(m,n) values in node
    storage order.  Returns (poly, nodes, report): the interpolant, the
    generated NodeSet, and the operation/storage report of the run.

    Raises
    ------
    ValueError
        When an array of values has the wrong shape, or f is not finite at
        a node.  The message names the first such node read: the lowest
        index for an array, the first in walk order for a callback.
    """
    cfg = config if config is not None else SolveConfig()
    t = tally if tally is not None else Tally()
    nodes, tree, hyperplanes = assemble_generic(
        m, n, frame=cfg.frame, lam=cfg.lam, kappa=cfg.kappa, mu=cfg.mu
    )
    t.alloc(nodes.points.size)
    values = None
    if not callable(f):
        values = np.asarray(f, dtype=float)
        if values.shape != (len(nodes),):
            raise ValueError(
                f"expected a callback or {len(nodes)} node values, "
                f"got shape {values.shape}"
            )
        _finite(values)
        t.alloc(values.size)
    frame = np.eye(m) if cfg.frame is None else np.asarray(cfg.frame, dtype=float)
    shift = np.zeros(m) if cfg.mu is None else np.asarray(cfg.mu, dtype=float)
    slices = leaf_slices(nodes)

    def solve_leaf(sigma, block, base, correction, divisors):
        """The interpolant of one leaf's corrected values, in m variables."""
        pts = nodes.points[block]
        if values is None:
            fvals = _finite(np.array([float(f(p)) for p in pts]), block.start)
        else:
            fvals = values[block]
        corrected = corrected_value(fvals, correction, divisors, pts, t)
        d, k = sigma
        if d == 1 or k == 0:
            line = LineSpec(direction=frame[0], base=base, kappa=cfg.kappa)
            return solve_on_line(corrected, k, line, nodes=pts, tally=t)[1]
        flat = FlatSpec(frame=frame, active=tuple(range(d)), base=base)
        return solve_linear(corrected, flat, nodes=pts, tally=t)[1]

    if tree is None:
        poly = solve_leaf((m, n), slices[eps_label(())], shift, MultiPoly.zero(m, n), [])
        return poly, nodes, t.report()

    acc = MultiPoly.zero(m, n)
    t.alloc(acc.coeffs.size)

    # explicit stack, bit-1 child on top, so leaves are reached (and their
    # contributions summed) in depth-first bit-1-first order; a bit-0 child
    # carries the hyperplane it crosses, whose divisor is built on arrival
    stack = [(tree.root, [], None)]
    while stack:
        vertex, divisors, crossed = stack.pop()
        if crossed is not None:
            factor = crossed.poly()
            factor.coeffs[0] -= float(crossed.normal @ shift)
            divisors = divisors + [(eps_label(crossed.eps), factor)]
        if not vertex.is_leaf:
            stack.append((tree.child(vertex, 0), divisors, hyperplanes[vertex.eps + (1,)]))
            stack.append((tree.child(vertex, 1), divisors, None))
            continue
        block = slices[eps_label(vertex.eps)]
        held = t.alloc(block.stop - block.start)
        base = vertex_base(tree, vertex, hyperplanes) + shift
        contribution = solve_leaf(vertex.sigma, block, base, acc, divisors)
        t.free(held)

        held = t.alloc(contribution.coeffs.size)
        degree = contribution.n
        for _, factor in divisors:
            degree += 1
            lifted = mul_linear(contribution, factor, n_out=degree)
            t.add_ops(
                (1 + int(np.count_nonzero(factor.coeffs[1:])))
                * count_total(m, degree - 1)
            )
            grabbed = t.alloc(lifted.coeffs.size)
            t.free(held)
            held = grabbed
            contribution = lifted
        if degree != n:
            raise AssertionError(
                f"leaf {vertex.eps} contribution reached degree {degree}, "
                f"expected exactly {n}"
            )
        acc.coeffs += contribution.coeffs
        t.add_ops(contribution.coeffs.size)
        t.free(held)
    return acc, nodes, t.report()

