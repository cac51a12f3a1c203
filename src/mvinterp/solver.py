"""Recursive interpolation solver over the decomposition tree.

Every leaf of the tree is a problem solved directly: a univariate Chebyshev
problem on a line, or a degree-1 problem on a flat.  A problem without a
tree (n = 0, m = 1 or n = 1) is one such leaf with no divisors.

What depends only on (m, n) and the geometry is computed once, into a plan
kept for reuse: the nodes, one table of divisor rows [c0, normal] (the
split hyperplanes, which a leaf divides by for each 0 bit of its path), and
flat arrays, per leaf its rows, kind, divisor rows and line offset, per node
its divisor product and line parameter.  A solve then does f's arithmetic
only.  It walks the leaves dimension-reduction branch first and reads f
once per node: an array of node values is sliced by leaf, a callback is
called on a leaf's rows when the walk reaches it, and a non-finite value is
rejected.  Each leaf corrects its block of values in one call,
(f - correction) / divisor product, solves, lifts its solution by its
divisors on raw coefficient arrays and adds it into one shared monomial
accumulator, which at the end of the walk is the interpolant.  The
correction is that accumulator evaluated at the leaf's rows, so each leaf
absorbs the rounding already in it; a walk on factored leaf values alone is
faster but less accurate.  A leaf's work runs in a helper, so nothing it
allocates outlives it into the next leaf's callback.  Only the current
leaf's corrected values exist, which caps tracked storage at a small
multiple of m * N(m,n).

Operation counts are analytic, derived from structural block sizes, so
two runs with the same (m, n, config) report identical counts whatever
values f takes.  Per convention, a fused multiply-add, a lone multiply,
and a division each count as one operation.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exceptions import GeometryConfigError
from .instrument import Tally
from .linear import solve_linear
from .monomials import build_order
# leaf_slices and evaluate are unused here, but the benchmark's tracer wraps
# them under these names
from .nodes import NodeSet, assemble_generic, leaf_slices  # noqa: F401
from .polynomial import MultiPoly, evaluate, evaluate_rows, mul_linear  # noqa: F401
from .tree import vertex_base
from .univariate import check_distinct, solve_on_line

__all__ = [
    "SolveConfig",
    "clear_plans",
    "corrected_value",
    "solve",
]


@dataclass
class SolveConfig:
    """Geometry knobs for a solve: node frame, offset base, spread, shift."""

    frame: np.ndarray | None = None
    lam: Fraction = Fraction(2)
    kappa: float = 1.0
    mu: np.ndarray | None = None


def _divisor_product(rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The product over the divisor rows [c0, normal] at each row of points."""
    return np.prod(rows[:, :1] + rows[:, 1:] @ points.T, axis=0)


def corrected_value(values, correction: MultiPoly, points, product, labels, count: int, tally=None) -> np.ndarray:
    """The corrected function (f - correction) / divisor product on a block.

    values holds f at the rows of points, and product the product of the
    count divisors at each row (see _divisor_product); labels, an iterable
    read only to name the divisors in an error, gives their hyperplanes.

    Raises
    ------
    ValueError
        When f minus the correction overflows at a node.
    GeometryConfigError
        When the division does, naming the node and the divisor labels; a
        backstop, as assembly keeps divisors clear of zero (GEOMETRY_RTOL).
    """
    numerator = np.asarray(values, dtype=float) - evaluate_rows(correction, points)
    corrected = numerator / product
    if not np.isfinite(corrected).all():
        node = np.flatnonzero(~np.isfinite(corrected))[0]
        where = f"at node {np.array2string(points[node], precision=6)}"
        if not np.isfinite(numerator[node]):
            raise ValueError(f"f minus the interpolant so far overflowed floating point {where}")
        raise GeometryConfigError(
            f"the corrected value {where} is {corrected[node]}; its leaf divides by "
            f"the hyperplanes {', '.join(labels)}, and the "
            "lambda/kappa configuration is ill posed"
        )
    if tally is not None:
        rows, m = points.shape
        tally.add_ops(rows * (2 * correction.coeffs.size + (m + 1) * count + 1))
    return corrected


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


class Plan(NamedTuple):
    """What a solve of one configuration reads besides f.  Leaf i, in walk
    order (the reverse of storage order), holds rows starts[i + 1]:starts[i]
    and divides, root first, by the rows indices[indptr[i]:indptr[i + 1]]
    of table."""

    nodes: NodeSet  # read-only points and their provenance
    frame: np.ndarray  # a copy of the given frame, or the shared identity
    table: np.ndarray  # (hyperplanes, m + 1): a divisor row [c0, normal] each
    starts: np.ndarray  # (leaves + 1,), starts[0] the node count
    lines: np.ndarray  # (leaves,) bool: a line leaf, else a flat
    indptr: np.ndarray  # (leaves + 1,)
    indices: np.ndarray  # (divisions,)
    offsets: np.ndarray  # (leaves,) t0 of a line leaf, t(x) = t0 + <frame[0], x>
    divisor: np.ndarray  # (nodes,) the product of a node's divisors at it
    param: np.ndarray  # (nodes,) a line leaf node's t; 0 at flat nodes


_identities = weakref.WeakValueDictionary()  # m -> the identity frame plans share


def _identity(m: int) -> np.ndarray:
    """The read-only m x m identity, one while any plan holds it."""
    eye = _identities.get(m)
    if eye is None:
        eye = _identities[m] = np.eye(m)
        eye.flags.writeable = False
    return eye


def _build_plan(m: int, n: int, frame, lam: Fraction, kappa: float, mu) -> Plan:
    """The plan of a configuration, read off the tree's table.

    Leaves are stored in walk order, the reverse of storage order, each with
    its rows, kind and the table rows of the splits it crosses, root first.
    Table row r is the divisor row [c0, normal] of the split with the r-th
    smallest mid, its hyperplane moved by mu, so the walk first divides by
    the rows from the last to the first.  Each node's divisor product and
    each line node's parameter <x - base, frame[0]> are computed here once,
    with the expressions of the leaf's own divisor rows and line, and a
    line's parameters are checked for near-duplicates.  A divisor product
    that overflows raises GeometryConfigError naming the leaf.
    """
    nodes, tree, hyperplanes = assemble_generic(m, n, frame=frame, lam=lam, kappa=kappa, mu=mu)
    points = nodes.points
    points.flags.writeable = False
    frame = _identity(m) if frame is None else frame
    direction = frame[0]
    shift = np.zeros(m) if mu is None else mu
    indices = []
    if tree is None:  # one leaf on the whole space, which divides by nothing
        table, row, flats = np.empty((0, m + 1)), np.empty(0, np.intp), shift[None]
        starts, lines, flat_of, indptr = [len(nodes), 0], [m == 1 or n == 0], [-1], [0, 0]
    else:
        row = np.argsort(np.argsort(tree.mid))
        specs = [hyperplanes[key] for key in tree.key]
        table = np.empty((len(specs), m + 1))
        table[row, 0] = [-spec.offset - float(spec.normal @ shift) for spec in specs]
        table[row, 1:] = [spec.normal for spec in specs]
        flats = vertex_base(tree, hyperplanes) + shift
        del hyperplanes, specs  # freed before the per-node vectors, as is the tree
        walk = tree.leaf[::-1]
        lines, flat_of = [tree.sigma[v][0] == 1 for v in walk], [tree.flat[v] for v in walk]
        starts, indptr = [len(nodes)], [0]
        for v in walk:
            starts.append(tree.lo[v])
            indices += tree.crossed(v)
            indptr.append(len(indices))
        del tree
    starts, lines, indptr, indices = np.array(starts), np.array(lines), np.array(indptr), row[indices]
    divisor, param, offsets = np.empty(len(nodes)), np.zeros(len(nodes)), np.zeros(lines.size)
    with np.errstate(over="ignore"):  # rejected next, naming the leaf
        for i in range(lines.size):
            lo, hi = starts[i + 1], starts[i]
            divisor[lo:hi] = _divisor_product(table[indices[indptr[i] : indptr[i + 1]]], points[lo:hi])
    bad = np.flatnonzero(~np.isfinite(divisor))
    if bad.size:
        raise GeometryConfigError(
            f"the divisor product of leaf {nodes.provenance[bad[0]]} overflows at node "
            f"{np.array2string(points[bad[0]], precision=6)}; the lambda/kappa "
            "configuration is ill posed"
        )
    for i in np.flatnonzero(lines):
        lo, hi, base = starts[i + 1], starts[i], flats[flat_of[i]]
        param[lo:hi] = (points[lo:hi] - base) @ direction
        check_distinct(param[lo:hi])
        offsets[i] = -float(direction @ base)
    # the frame in C order, as solve_linear takes a flat's active rows
    return Plan(nodes, np.ascontiguousarray(frame), table, starts, lines, indptr, indices, offsets, divisor, param)


# key -> plan, the most recently used last; a hit relinks in place, as a pop
# and re-insert would resize the table every few dozen hits, inside a solve
_plans: OrderedDict = OrderedDict()
PLAN_CACHE_SIZE = 32
# reals that the kept plans' points, divisor tables, per-node vectors and
# frames may hold together, a frame shared by plans once; a plan was measured
# to hold at most 16 bytes per real plus 3.2 KB, so all hold about 4.3 MB
PLAN_CACHE_REALS = 2**18


def _plan(m: int, n: int, cfg: SolveConfig) -> Plan:
    """The plan of a solve, kept from an earlier call or built and kept."""
    frame, mu = (None if a is None else np.array(a, dtype=float) for a in (cfg.frame, cfg.mu))
    lam, kappa = Fraction(cfg.lam), float(cfg.kappa)
    key = (m, n, lam, kappa, *(None if a is None else (a.shape, a.tobytes()) for a in (frame, mu)))
    plan = _plans.get(key)
    if plan is not None:  # the same plans stay kept, so they still fit
        _plans.move_to_end(key)
        return plan
    _plans[key] = plan = _build_plan(m, n, frame, lam, kappa, mu)
    held, count, frames = 0, 0, set()
    for old, kept in reversed(list(_plans.items())):  # the newest first
        size = sum(a.size for a in (kept.nodes.points, kept.table, kept.divisor, kept.param))
        size += 0 if id(kept.frame) in frames else kept.frame.size  # unless a newer plan shares it
        if count < PLAN_CACHE_SIZE and held + size <= PLAN_CACHE_REALS:
            held, count = held + size, count + 1
            frames.add(id(kept.frame))
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

    A plan holds the nodes and every quantity of the walk that does not
    depend on f, so a repeat call does only f's arithmetic.  The newest
    PLAN_CACHE_SIZE plans of (m, n, config) are kept while they weigh
    PLAN_CACHE_REALS reals in all (about 4.3 MB at most); clear_plans
    releases them.  nodes.points is shared and read-only, and
    nodes.provenance a fresh list, so changing either cannot change a plan.

    Raises
    ------
    ValueError
        When an array of values has the wrong shape, or f is not finite at
        a node.  The message names the first such node read: the lowest
        index for an array, the first in walk order for a callback.  Also
        when the interpolant overflows.
    GeometryConfigError
        When assemble_generic rejects the geometry.
    """
    cfg = config if config is not None else SolveConfig()
    t = tally if tally is not None else Tally()
    plan = _plan(m, n, cfg)
    points, provenance = plan.nodes.points, plan.nodes.provenance
    nodes = NodeSet(points, list(provenance), m, n)
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
    starts, indptr, direction = plan.starts, plan.indptr, plan.frame[0]

    def solve_leaf(i, lo, hi, count, correction):
        """Leaf i's interpolant of its corrected values, as coefficients."""
        pts = points[lo:hi]
        if values is None:
            fvals = _finite(np.array([float(f(p)) for p in pts]), lo)
        else:
            fvals = values[lo:hi]
        eps = provenance[lo]  # a leaf divides by the hyperplane of each 0 bit
        labels = (eps[:j] + "1" for j, bit in enumerate(eps) if bit == "0")
        corrected = corrected_value(fvals, correction, pts, plan.divisor[lo:hi], labels, count, t)
        if plan.lines[i]:
            return solve_on_line(plan.param[lo:hi], corrected, plan.offsets[i], direction, t)
        return solve_linear(corrected, plan.frame[: hi - lo - 1], pts[0], t)

    def add_leaf(i):
        """Solve leaf i, lift it by its divisors and add it into acc."""
        lo, hi = int(starts[i + 1]), int(starts[i])
        rows = plan.table[plan.indices[indptr[i] : indptr[i + 1]]]
        held = t.alloc(hi - lo)
        coeffs = solve_leaf(i, lo, hi, len(rows), acc)
        t.free(held)
        held = t.alloc(coeffs.size)
        degree = n - len(rows)
        for row in rows:
            degree += 1
            t.add_ops((1 + int(np.count_nonzero(row[1:]))) * coeffs.size)
            coeffs = mul_linear(coeffs, row, build_order(m, degree))
            grabbed = t.alloc(coeffs.size)
            t.free(held)
            held = grabbed
        acc.coeffs += coeffs
        t.add_ops(coeffs.size)
        t.free(held)

    if len(plan.lines) == 1:  # no tree: the one leaf's interpolant is f's
        acc = MultiPoly(m, n, solve_leaf(0, 0, len(nodes), 0, MultiPoly.zero(m, n)))
    else:
        acc = MultiPoly.zero(m, n)
        t.alloc(acc.coeffs.size)
        for i in range(len(plan.lines)):
            add_leaf(i)
    if not np.isfinite(acc.coeffs).all():
        raise ValueError("the interpolant overflowed floating point")
    return acc, nodes, t.report()
