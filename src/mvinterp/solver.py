"""Recursive interpolation solver over the decomposition tree.

Every leaf of the tree is a problem solved directly: a univariate Chebyshev
problem on a line, or a degree-1 problem on a flat.  A problem without a
tree (n = 0, m = 1 or n = 1) is one such leaf with no divisors.

What depends only on (m, n) and the geometry is computed once, into a plan
kept for reuse: the nodes, one table of divisor rows [c0, normal] (the
split hyperplanes, which a leaf divides by for each 0 bit of its path), and
flat arrays, per leaf its rows, kind, divisor rows and line offset, per node
its divisor product and line parameter.  A solve then does f's arithmetic
only.  f is read into one array of node values before the walk: a callback
is called once per node, in storage order, and a non-finite value is
rejected, naming the lowest such node.  The walk visits the leaves
dimension-reduction branch first and slices that array by leaf.  Each leaf
corrects its block of values in one call, (f - correction) / divisor
product, solves, lifts its solution by its divisors on raw coefficient
arrays and adds it into one shared monomial accumulator, which at the end
of the walk is the interpolant.  The correction is that accumulator
evaluated at the leaf's rows, so each leaf absorbs the rounding already in
it; a walk on factored leaf values alone is faster but less accurate.  A
leaf's work runs in a helper, so nothing it allocates outlives it into the
next leaf to raise the peak.  Only the current leaf's corrected values
exist, the row kernel fills one monomial buffer with one top-block
temporary per row, and the returned nodes share the plan's points and
labels, which caps a repeat solve's storage at about 3 N(m,n) reals beyond
its plan and the values, and a first solve's at a small multiple of
m * N(m,n).

The report is counted once per plan, as nothing in it depends on f's
values: the plan's multiply-adds (see _step_multiply_adds; a fused
multiply-add, a lone multiply and a division each count one), and the reals
a solve holds at its peak and in its largest array, closed forms in m and n.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exceptions import GeometryConfigError
from .linear import solve_linear
from .monomials import build_order, count_total
# leaf_slices and evaluate go unused here, but the benchmark's tracer wraps them
from .nodes import NodeSet, assemble_generic, leaf_slices  # noqa: F401
from .polynomial import MultiPoly, _real_array, evaluate, mul_linear, row_kernel  # noqa: F401
from .tree import vertex_base
from .univariate import solve_on_line

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
    """The product over the divisor rows [c0, normal] at each row of points;
    stacks (..., c, m + 1) and (..., r, m) pair up on their leading axes."""
    return (rows[..., :1] + rows[..., 1:] @ points.swapaxes(-1, -2)).prod(axis=-2)


def corrected_value(values, correction: MultiPoly, points, product, labels) -> np.ndarray:
    """The corrected function (f - correction) / divisor product on a block.

    values holds f at the rows of points, a float (rows, m) array read by
    row_kernel unchecked, and product the product of the divisors at each
    row (see _divisor_product); labels, an iterable read only to name the
    divisors in an error, gives their hyperplanes.

    Raises
    ------
    ValueError
        When f minus the correction overflows at a node, naming the block's
        coordinate scale: large coordinates overflow the correction's
        monomials even for a bounded f.
    GeometryConfigError
        When the division does, naming the node and the divisor labels; a
        backstop, as assembly keeps divisors clear of zero (GEOMETRY_RTOL).
    """
    try:
        numerator = np.asarray(values, dtype=float) - row_kernel(correction, points)
        corrected = numerator / product
    except RuntimeWarning:  # a warnings filter made NumPy's warning an error: redo quietly, to name the node
        with np.errstate(all="ignore"):
            numerator = np.asarray(values, dtype=float) - row_kernel(correction, points)
            corrected = numerator / product
    if not np.isfinite(corrected).all():
        node = np.flatnonzero(~np.isfinite(corrected))[0]
        where = f"at node {np.array2string(points[node], precision=6)}"
        if not np.isfinite(numerator[node]):
            raise ValueError(
                f"f minus the interpolant so far overflowed floating point {where}; the "
                f"block's coordinates reach {np.abs(points).max():.3g} (max |x|), so "
                "lambda, kappa or mu may be to blame rather than f"
            )
        raise GeometryConfigError(
            f"the corrected value {where} is {corrected[node]}; its leaf divides by "
            f"the hyperplanes {', '.join(labels)}, and the "
            "lambda/kappa configuration is ill posed"
        )
    return corrected


class Plan(NamedTuple):
    """What a solve of one configuration reads besides f.  Leaf i, in walk
    order (the reverse of storage order), holds rows starts[i + 1]:starts[i]
    and divides, root first, by the rows indices[indptr[i]:indptr[i + 1]]
    of table."""

    nodes: NodeSet  # read-only points and their provenance, a tuple
    frame: np.ndarray  # a copy of the given frame, or the identity
    table: np.ndarray  # (hyperplanes, m + 1): a divisor row [c0, normal] each
    starts: np.ndarray  # (leaves + 1,), starts[0] the node count
    lines: np.ndarray  # (leaves,) bool: a line leaf, else a flat
    indptr: np.ndarray  # (leaves + 1,)
    indices: np.ndarray  # (divisions,)
    offsets: np.ndarray  # (leaves,) t0 of a line leaf, t(x) = t0 + <frame[0], x>
    divisor: np.ndarray  # (nodes,) the product of a node's divisors at it
    param: np.ndarray  # (nodes,) a line leaf node's t; 0 at flat nodes
    multiply_adds: int  # of a solve, see _step_multiply_adds


def _step_multiply_adds(m: int, n: int, starts, lines, table, indptr, indices) -> dict:
    """The multiply-adds of each step of a solve, summed over the leaves.

    The arguments are a plan's (see Plan).  A leaf of rows nodes that
    divides by c hyperplanes costs, with N = N(m, n):

    - correct: rows (2 N + (m + 1) c + 1), for the correction evaluated at
      each row, the divisor product and one division;
    - solve: on a line, with k = rows - 1, 3 k (k + 1) / 2 for the divided
      differences, k (k + 1) for their monomial expansion and
      (m + 2) (N(m + 1, k) - 1) for the k lifts of the embedding; on a flat,
      (m + 2) rows;
    - lift: by divisor row j = 0 .. c - 1, (1 + the non-zeros of its normal)
      N(m, n - c + j);
    - add: N into the accumulator, unless the one leaf is the whole problem.
    """
    total = count_total(m, n)
    rows, count = starts[:-1] - starts[1:], np.diff(indptr)
    k = rows[lines] - 1
    on_line = np.array([count_total(m + 1, d) for d in range(n + 1)])  # N(m + 1, k)
    sizes = np.array([count_total(m, d) for d in range(n + 1)])  # N(m, d)
    # the lift by division d of leaf i starts from degree n - c + (d - indptr[i])
    degree = np.repeat(n - count - indptr[:-1], count) + np.arange(indices.size)
    nonzeros = np.count_nonzero(table[:, 1:], axis=1)
    return {
        "correct": int(rows @ (2 * total + (m + 1) * count + 1)),
        "solve": int((3 * k * (k + 1) // 2 + k * (k + 1) + (m + 2) * (on_line[k] - 1)).sum())
        + (m + 2) * int(rows[~lines].sum()),
        "lift": int((1 + nonzeros[indices]) @ sizes[degree]),
        "add": total * rows.size if rows.size > 1 else 0,
    }


def _build_plan(m: int, n: int, frame, lam: Fraction, kappa: float, mu) -> Plan:
    """The plan of a configuration, read off the tree's and its hyperplanes' tables.

    Leaves are stored in walk order, the reverse of storage order, each with
    its rows, kind and the table rows of the splits it crosses, root first.
    Table row r is the divisor row [c0, normal] of split r, in the tree's
    preorder, its hyperplane moved by mu.  One walk up the cross column finds
    every leaf's crossed splits at once, right-aligned and root first, so a
    leaf of sigma (d, k) has them in its last n - k columns.  Then, one leaf
    sigma at a time as in assembly, come the divisor products, which raise
    GeometryConfigError naming the leaf if one overflows, and the line
    parameters <x - base, frame[0]> (kept apart by assembly's spread guard)
    and line offsets, each with the bits of its leaf's own expression.
    Without a tree there is one leaf, of sigma (1, n) or (m, n), dividing
    by nothing.
    """
    nodes, tree, hyperplanes = assemble_generic(m, n, frame=frame, lam=lam, kappa=kappa, mu=mu)
    points = nodes.points
    points.flags.writeable = False
    frame = np.eye(m) if frame is None else frame
    direction = frame[0]
    shift = np.zeros(m) if mu is None else mu
    if tree is None:  # one leaf on the whole space, which divides by nothing
        table, bases, lo = np.empty((0, m + 1)), shift[None], np.zeros(1, np.intp)
        crossed = np.empty((1, 0), np.intp)
        groups = {(1, n) if m == 1 or n == 0 else (m, n): np.zeros(1, np.intp)}
    else:
        axis, normals = hyperplanes.axis, hyperplanes.frame
        moved = np.array([normal @ shift for normal in normals])  # a dot per axis: a matrix product may round apart
        table = np.column_stack((-hyperplanes.offset - moved[axis], normals[axis]))
        leaf, cross, split = np.array(tree.leaf), np.array(tree.cross + [-1]), np.array(tree.split + [-1])
        bases, lo = (vertex_base(tree, hyperplanes) + shift)[tree.leaf_flat], tree.leaf_lo
        crossed, up = np.empty((leaf.size, n), np.intp), cross[leaf]
        for column in range(n - 1, -1, -1):  # each leaf's next split up; -1, past the root, stays -1
            crossed[:, column] = up
            up = cross[split[up]]
        groups = tree.leaf_groups
        del tree, hyperplanes, axis, normals  # freed before the per-node vectors
    walk = crossed[::-1]
    valid = walk >= 0
    starts, indptr = np.concatenate(([len(nodes)], lo[::-1])), np.concatenate(([0], valid.sum(1).cumsum()))
    indices = walk[valid]
    divisor = np.empty(len(nodes))
    with np.errstate(over="ignore"):  # rejected next, naming the leaf
        for (d, k), at in groups.items():
            block = lo[at, None] + np.arange(k + 1 if d == 1 else d + 1)
            divisor[block] = _divisor_product(table[crossed[at, k:]], points[block])
    bad = np.flatnonzero(~np.isfinite(divisor))
    if bad.size:
        raise GeometryConfigError(
            f"the divisor product of leaf {nodes.provenance[bad[0]]} overflows at node "
            f"{np.array2string(points[bad[0]], precision=6)}; the lambda/kappa "
            "configuration is ill posed"
        )
    param, lines, offsets = np.zeros(len(nodes)), np.zeros(lo.size, bool), np.zeros(lo.size)
    for (d, k), at in groups.items():
        if d == 1:  # its leaves' walk positions are lo.size - 1 - at
            block, base = lo[at, None] + np.arange(k + 1), bases[at, None]
            param[block] = (points[block] - base) @ direction  # a gemv per leaf, as on a leaf's own line
            lines[-1 - at] = True
            offsets[-1 - at] = -(base @ direction[:, None])[:, 0, 0]  # a dot per leaf: one gemv may round apart
    ops = sum(_step_multiply_adds(m, n, starts, lines, table, indptr, indices).values())
    # the frame in C order, as solve_linear takes a flat's active rows
    return Plan(nodes, np.ascontiguousarray(frame), table, starts, lines, indptr, indices, offsets, divisor, param, ops)


# key -> plan, the most recently used last; a hit relinks in place, as a pop
# and re-insert would resize the table every few dozen hits, inside a solve
_plans: OrderedDict = OrderedDict()
PLAN_CACHE_SIZE = 32
# reals that the kept plans' points, divisor tables, per-node vectors and
# frames may hold together; a plan was measured to hold at most 16 bytes
# per real plus 3.2 KB, so all hold about 4.3 MB
PLAN_CACHE_REALS = 2**18


def _plan(m: int, n: int, cfg: SolveConfig) -> Plan:
    """The plan of a solve, kept from an earlier call or built and kept."""
    frame = None if cfg.frame is None else np.array(_real_array(cfg.frame, "frame"))
    mu = None if cfg.mu is None else np.array(_real_array(cfg.mu, "mu"))
    lam, kappa = Fraction(cfg.lam), float(cfg.kappa)
    key = (m, n, lam, kappa, *(None if a is None else (a.shape, a.tobytes()) for a in (frame, mu)))
    plan = _plans.get(key)
    if plan is not None:  # the same plans stay kept, so they still fit
        _plans.move_to_end(key)
        return plan
    _plans[key] = plan = _build_plan(m, n, frame, lam, kappa, mu)
    held, count = 0, 0
    for old, kept in reversed(list(_plans.items())):  # the newest first
        size = sum(a.size for a in (kept.nodes.points, kept.frame, kept.table, kept.divisor, kept.param))
        if count < PLAN_CACHE_SIZE and held + size <= PLAN_CACHE_REALS:
            held, count = held + size, count + 1
        else:
            _plans.pop(old, None)
    return plan


def clear_plans() -> None:
    """Release every solve plan kept for reuse."""
    _plans.clear()


def solve(f, m: int, n: int, config: SolveConfig | None = None):
    """Interpolate f with the unique degree <= n polynomial on generated nodes.

    f is a callback on m-vectors, or an array of N(m,n) values in node
    storage order.  A callback is called once per node, in storage order,
    before the walk, on the plan's read-only points, and its results fill
    the same array of values.  Returns (poly, nodes, report): the
    interpolant, the generated NodeSet, and the report of the run, counted
    once per plan: multiply_adds, peak_reals_stored (m N for the nodes, N
    for the values and, when there is a tree, 2 N + N(m, n-1) for the
    accumulator and the last lift's input and output, N = N(m,n)) and
    largest_single_alloc (m N, the nodes).  The closed form leaves out
    the row kernel's monomial buffer (N) and its one top-block temporary
    per row (see evaluate_rows).

    A plan holds the nodes and every quantity of the walk that does not
    depend on f, so a repeat call does only f's arithmetic.  The newest
    PLAN_CACHE_SIZE plans of (m, n, config) are kept while they weigh
    PLAN_CACHE_REALS reals in all (about 4.3 MB at most), so a plan that
    alone weighs more, (20, 4) upward, is never kept; clear_plans releases
    them.  The returned nodes share the plan's read-only points and its
    tuple of provenance labels, so writing to either raises and cannot
    change a plan.

    Raises
    ------
    ValueError
        When an array of values has the wrong shape or a complex dtype, or
        f is not finite at a node, naming the lowest such node index for
        either input form.
        Also when a callback writes into its argument, when the config's
        frame or mu is complex, and when the interpolant overflows.
    GeometryConfigError
        When assemble_generic rejects the geometry.
    """
    cfg = config if config is not None else SolveConfig()
    plan = _plan(m, n, cfg)
    points, provenance = plan.nodes.points, plan.nodes.provenance
    nodes, total = NodeSet(points, provenance, m, n), len(provenance)
    if callable(f):  # read once, in storage order, into the array the walk slices
        values = np.fromiter((float(f(p)) for p in points), float, total)
    else:
        values = _real_array(f, "f's values")
        if values.shape != (total,):
            raise ValueError(f"expected a callback or {total} node values, got shape {values.shape}")
    if not np.isfinite(values).all():  # then find the first bad node, to name it
        bad = np.flatnonzero(~np.isfinite(values))[0]
        raise ValueError(f"f is not finite at node {bad}: {float(values[bad])}")
    starts, indptr, indices, table, direction = plan.starts, plan.indptr, plan.indices, plan.table, plan.frame[0]

    def solve_leaf(i, lo, hi, correction):
        """Leaf i's interpolant of its corrected values, as coefficients."""
        pts = points[lo:hi]
        eps = provenance[lo]  # a leaf divides by the hyperplane of each 0 bit
        labels = (eps[:j] + "1" for j, bit in enumerate(eps) if bit == "0")
        corrected = corrected_value(values[lo:hi], correction, pts, plan.divisor[lo:hi], labels)
        if plan.lines[i]:
            return solve_on_line(plan.param[lo:hi], corrected, plan.offsets[i], direction)
        return solve_linear(corrected, plan.frame[: hi - lo - 1], pts[0])

    def add_leaf(i):
        """Solve leaf i, lift it by its divisors and add it into acc."""
        lo, hi, first, last = int(starts[i + 1]), int(starts[i]), int(indptr[i]), int(indptr[i + 1])
        coeffs = solve_leaf(i, lo, hi, acc)
        for r in range(first, last):  # the lift by divisor row r ends at degree n - (last - 1 - r)
            coeffs = mul_linear(coeffs, table[indices[r]], build_order(m, n + 1 + r - last))
        acc.coeffs += coeffs

    peak = (m + 1) * total  # the nodes and the values
    if len(plan.lines) == 1:  # no tree: the one leaf's interpolant is f's
        acc = MultiPoly(m, n, solve_leaf(0, 0, total, MultiPoly.zero(m, n)))
    else:
        peak += 2 * total + count_total(m, n - 1)
        acc = MultiPoly.zero(m, n)
        for i in range(len(plan.lines)):
            add_leaf(i)
    if not np.isfinite(acc.coeffs).all():
        raise ValueError("the interpolant overflowed floating point")
    report = {"multiply_adds": plan.multiply_adds, "peak_reals_stored": peak, "largest_single_alloc": m * total}
    return acc, nodes, report
