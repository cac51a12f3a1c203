"""Recursive interpolation solver over the decomposition tree.

The solver walks the tree depth-first, dimension-reduction branch first.
Every leaf is a problem it can solve directly: a univariate Chebyshev
problem on a line, or a degree-1 problem on a flat.  A problem without a
tree (n = 0, m = 1 or n = 1) is one such leaf with no divisors.  Nodes
and leaves depend only on (m, n) and the geometry, and are kept for reuse.

f is read exactly once per node: an array of node values is sliced by
leaf, a callback is called on a leaf's rows when the walk reaches it, and
a non-finite value is rejected.  Each leaf then corrects its block of
values in one call, (f - correction) / divisor product, where the
correction is the sum of the contributions of all previously solved
leaves and the divisors are the split-hyperplane linears crossed on bit-0
edges on the way down, rows [c0, normal] of one table per plan.  Each
leaf solution, lifted by its divisors on raw coefficient arrays, lands in
one shared monomial accumulator, which at the end of the walk is the
interpolant itself.  The correction is that accumulator evaluated at the
leaf's rows, so each leaf absorbs the rounding already in it; a walk on
factored leaf values alone is faster but less accurate.  A leaf's work
runs in a helper, so nothing it allocates outlives it into the next
leaf's callback.

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
from .monomials import build_order, count_total
# leaf_slices, evaluate and mul_linear are unused here, but the benchmark's
# tracer wraps solver.leaf_slices, solver.evaluate and solver.mul_linear
from .nodes import NodeSet, assemble_generic, leaf_slices  # noqa: F401
from .polynomial import MultiPoly, evaluate, evaluate_rows, lift_linear, mul_linear  # noqa: F401
from .tree import eps_label, vertex_base
from .univariate import LineSpec, solve_on_line

__all__ = [
    "SolveConfig",
    "clear_plans",
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

    values holds f at the rows of points; divisors are (label, factor)
    pairs, one per bit-0 edge on the path from the root, a factor being the
    coefficients [c0, c_1..c_m] of a degree-1 polynomial or the MultiPoly.

    Raises
    ------
    GeometryConfigError
        When a divisor factor at a node falls below DIVISION_RTOL relative
        to the magnitudes entering it: the node configuration puts that
        node too close to a hyperplane this subproblem divides by.
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[1]
    numerator = np.asarray(values, dtype=float) - evaluate_rows(correction, points)
    rows = np.array([getattr(factor, "coeffs", factor) for _, factor in divisors])
    rows = rows.reshape(len(divisors), m + 1)
    const, lin = rows[:, :1], rows[:, 1:]
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
        tally.add_ops(points.shape[0] * (2 * correction.coeffs.size + (m + 1) * len(divisors) + 1))
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


def _build_plan(m: int, n: int, frame, lam: Fraction, kappa: float, mu):
    """(nodes, leaves, treeless): nodes with read-only points and, per leaf
    in walk order, (rows, k of sigma = (d, k), LineSpec or FlatSpec, divisors).

    A leaf's divisors are (label, row) pairs, each row [c0, normal] a view
    of the plan's one table of divisor rows, a row per hyperplane."""
    nodes, tree, hyperplanes = assemble_generic(m, n, frame=frame, lam=lam, kappa=kappa, mu=mu)
    nodes.points.flags.writeable = False
    frame = np.eye(m) if frame is None else frame
    shift = np.zeros(m) if mu is None else mu
    direction = frame[0]
    top = len(nodes)  # the walk meets the leaves last row first

    def record(sigma, base, divisors):
        nonlocal top
        d, k = sigma
        block = slice(top - count_total(d, k), top)
        top = block.start
        if d == 1 or k == 0:
            return block, k, LineSpec(direction=direction, base=base, kappa=kappa), divisors
        return block, k, FlatSpec(frame=frame, active=tuple(range(d)), base=base), divisors

    if tree is None:
        return nodes, [record((m, n), shift, [])], True
    table = np.empty((len(hyperplanes), m + 1))
    leaves = []
    # explicit stack, bit-1 child on top, so leaves come in the reverse of
    # their storage order; a bit-0 child carries the key of the hyperplane it
    # crosses, which no vertex left on the stack needs after its divisor, so
    # dropping it keeps building a plan from peaking above the assembly
    stack = [(tree.root, [], None)]
    while stack:
        vertex, divisors, crossed = stack.pop()
        if crossed is not None:
            crossed = hyperplanes.pop(crossed)
            row = table[len(hyperplanes)]  # one row per popped hyperplane, last row first
            row[0] = -crossed.offset - float(crossed.normal @ shift)
            row[1:] = crossed.normal
            divisors = divisors + [(eps_label(crossed.eps), row)]
        if not vertex.is_leaf:
            stack.append((tree.child(vertex, 0), divisors, vertex.eps + (1,)))
            stack.append((tree.child(vertex, 1), divisors, None))
            continue
        base = vertex_base(tree, vertex, hyperplanes) + shift
        leaves.append(record(vertex.sigma, base, divisors))
    return nodes, leaves, False


_plans: dict = {}  # key -> plan, the most recently used last
PLAN_CACHE_SIZE = 32
# reals that the kept plans' node sets and frames (m * N + m * m) may hold
# together; a plan was measured to hold at most 64 bytes per real plus 6 KB,
# so all kept plans hold about 17 MB at most
PLAN_CACHE_REALS = 2**18


def _plan(m: int, n: int, cfg: SolveConfig):
    """The plan of a solve, kept from an earlier call or built and kept."""
    frame, mu = (None if a is None else np.array(a, dtype=float) for a in (cfg.frame, cfg.mu))
    lam, kappa = Fraction(cfg.lam), float(cfg.kappa)
    key = (m, n, lam, kappa, *(None if a is None else (a.shape, a.tobytes()) for a in (frame, mu)))
    plan = _plans.pop(key, None) or _build_plan(m, n, frame, lam, kappa, mu)
    _plans[key] = plan
    held, count = 0, 0
    for old, kept in reversed(list(_plans.items())):  # the newest first
        size = kept[0].points.size + old[0] ** 2
        if count < PLAN_CACHE_SIZE and held + size <= PLAN_CACHE_REALS:
            held, count = held + size, count + 1
        else:
            _plans.pop(old, None)
    return plan


def clear_plans() -> None:
    """Release every solve plan kept for reuse."""
    _plans.clear()


def solve(f, m: int, n: int, config: SolveConfig | None = None, tally: Tally | None = None):
    """Interpolate f with the unique degree <= n polynomial on generated nodes.

    f is a callback on m-vectors, or an array of N(m,n) values in node
    storage order.  Returns (poly, nodes, report): the interpolant, the
    generated NodeSet, and the operation/storage report of the run.

    The newest PLAN_CACHE_SIZE plans of (m, n, config) are kept while their
    nodes and frames hold PLAN_CACHE_REALS reals in all (about 17 MB at
    most); clear_plans releases them.  nodes.points is shared and read-only, and
    nodes.provenance a fresh list, so changing either cannot change a plan.

    Raises
    ------
    ValueError
        When an array of values has the wrong shape, or f is not finite at
        a node.  The message names the first such node read: the lowest
        index for an array, the first in walk order for a callback.
    """
    cfg = config if config is not None else SolveConfig()
    t = tally if tally is not None else Tally()
    shared, leaves, treeless = _plan(m, n, cfg)
    nodes = NodeSet(shared.points, list(shared.provenance), m, n)
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

    def solve_leaf(block, k, spec, divisors, correction):
        """The interpolant of one leaf's corrected values, in m variables."""
        pts = nodes.points[block]
        if values is None:
            fvals = _finite(np.array([float(f(p)) for p in pts]), block.start)
        else:
            fvals = values[block]
        corrected = corrected_value(fvals, correction, divisors, pts, t)
        if isinstance(spec, LineSpec):
            return solve_on_line(corrected, k, spec, pts, tally=t)
        return solve_linear(corrected, spec, tally=t)

    if treeless:
        return solve_leaf(*leaves[0], MultiPoly.zero(m, n)), nodes, t.report()

    acc = MultiPoly.zero(m, n)
    t.alloc(acc.coeffs.size)

    def add_leaf(block, k, spec, divisors):
        """Solve one leaf, lift it by its divisors and add it into acc."""
        held = t.alloc(block.stop - block.start)
        contribution = solve_leaf(block, k, spec, divisors, acc)
        t.free(held)

        coeffs, degree = contribution.coeffs, contribution.n
        del contribution  # each lift then frees the coefficients it replaces
        held = t.alloc(coeffs.size)
        for _, row in divisors:
            degree += 1
            t.add_ops((1 + int(np.count_nonzero(row[1:]))) * coeffs.size)
            coeffs = lift_linear(coeffs, row, build_order(m, degree))
            grabbed = t.alloc(coeffs.size)
            t.free(held)
            held = grabbed
        if degree != n:
            raise AssertionError(
                f"leaf {nodes.provenance[block.start]} contribution reached "
                f"degree {degree}, expected exactly {n}"
            )
        acc.coeffs += coeffs
        t.add_ops(coeffs.size)
        t.free(held)

    for leaf in leaves:
        add_leaf(*leaf)
    return acc, nodes, t.report()
