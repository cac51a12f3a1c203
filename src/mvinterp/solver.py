"""Recursive interpolation solver over the decomposition tree.

Every leaf of the tree is a problem solved directly: a univariate Chebyshev
problem on a line, or a degree-1 problem on a flat; the degree-0 leaf of an
(m, 0) tree is walked as a degree-0 line.  A base case (n = 0, m = 1 or
n = 1) is a one-leaf tree, whose leaf divides by nothing.

What depends only on (m, n) and the geometry is computed once, into a plan
kept for reuse: the nodes, one table of divisor rows [c0, normal] (the
split hyperplanes, which a leaf divides by for each 0 bit of its path),
each also in the form a lift reads, c0 and the (axis, coefficient) pairs
of its normal's non-zero entries; per leaf, as lists of Python numbers,
its rows, kind, divisor rows, line offset, reach and correction path; per
node, as arrays, its divisor product and line parameter.  A solve then
does f's arithmetic only, and converts nothing per leaf or per lift.  f is
read into one array of node values before the walk: a callback is called
once per node, in storage order, and a non-finite value is rejected,
naming the lowest such node.  The walk visits the leaves
dimension-reduction branch first and slices that array by leaf.  Each leaf
corrects its block of values in one call, (f - correction) / divisor
product, solves, and lifts its solution by its divisors, every lift
through the (m, n) order's one lift table, the last adding into one shared
monomial accumulator in place; the first leaf divides by nothing and
starts it, and at the end it is the interpolant.
The correction is that accumulator evaluated at the leaf's rows, so each
leaf absorbs the rounding already in it; a walk on factored leaf values
alone is faster but less accurate.  In the identity frame a leaf's rows
lie on a line along x_0, or on an axis flat, its base and the base plus
each e_i; there the correction is the accumulator restricted to that line
or flat, a polynomial in one coordinate per row, built once per leaf from
one monomial row at the base (restricted_kernel).  Elsewhere, in a rotated
frame or on a flat that mu moves off its axes, row_kernel evaluates the
accumulator at each row, and as the lifts so far reach only the first p
variables, the leaf's reach, it may read only the (p, n) part at the rows'
first p coordinates.  Of the paths open to a leaf, the plan takes the one
whose temporaries hold the fewest bytes (see _correction_paths).  A leaf's
work runs in a helper, so nothing it allocates outlives it into the next
leaf to raise the peak.  Only the current leaf's corrected values exist, a
correction holds one monomial row with its temporaries, and the returned
nodes share the plan's points and labels, which caps a repeat solve's
storage at about 3 N(m,n) reals beyond its plan and the values, and a
first solve's at a small multiple of m N.

The report is counted once per plan, as nothing in it depends on f's
values: the plan's multiply-adds (see _step_multiply_adds; a fused
multiply-add, a lone multiply and a division each count one), and the reals
a solve holds at its peak and in its largest array, closed forms in m and n.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple

import numpy as np

from .exceptions import GeometryConfigError
from .linear import solve_linear
from .monomials import build_order, count_degree, count_total
# leaf_slices and evaluate go unused here, but the benchmark's tracer wraps them
from .nodes import NodeSet, assemble_generic, leaf_slices  # noqa: F401
from .polynomial import evaluate  # noqa: F401
from .polynomial import MultiPoly, _real_array, linear_terms, mul_linear, restricted_kernel, row_kernel
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


def corrected_value(values, correction: MultiPoly | None, points, product, labels, restrict: int = 0) -> np.ndarray:
    """The corrected function (f - correction) / divisor product on a block.

    values holds f at the rows of points, a float (rows, m) array read
    unchecked, the correction being a polynomial in their first
    correction.m coordinates, or None for zero; product holds the product
    of the divisors at each row (see _divisor_product); labels, an iterable
    read only to name the divisors in an error, gives their hyperplanes.
    restrict = d > 0 reads the correction restricted to the rows' line or
    flat (see restricted_kernel, whose rows they must be), else row_kernel
    evaluates it at each row.

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
    f = np.asarray(values, dtype=float)
    try:
        numerator = f if correction is None else f - _evaluate(correction, points, restrict)
        corrected = numerator / product
    except RuntimeWarning:  # a warnings filter made NumPy's warning an error: redo quietly, to name the node
        with np.errstate(all="ignore"):
            numerator = f if correction is None else f - _evaluate(correction, points, restrict)
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


def _evaluate(correction: MultiPoly, points, restrict: int) -> np.ndarray:
    """The correction at the rows: restricted_kernel's with d = restrict, else row_kernel's."""
    return restricted_kernel(correction, restrict, points) if restrict else row_kernel(correction, points)


class Plan(NamedTuple):
    """What a solve of one configuration reads besides f.  Leaf i, in walk
    order (the reverse of storage order), holds rows starts[i + 1]:starts[i]
    and divides, root first, by the rows indices[indptr[i]:indptr[i + 1]]
    of table, and lifts its solution by them in their form rows.  Its
    correction reads
    the accumulator restricted to its line or flat where restrict[i] = d >
    0, else through row_kernel: in the first reach[i] variables alone up to
    reach compact, else in all m.  The per-leaf vectors are lists of Python
    numbers, as the walk reads them one at a time."""

    nodes: NodeSet  # read-only points and their provenance, a tuple
    frame: np.ndarray  # a copy of the given frame, or the identity
    table: np.ndarray  # (hyperplanes, m + 1): a divisor row [c0, normal] each
    rows: tuple  # (hyperplanes,) table's rows as mul_linear reads them, (c0, linear_terms(normal))
    direction: tuple  # linear_terms(frame[0]), a line's direction as embed_univariate reads it
    starts: list  # (leaves + 1,), starts[0] the node count
    lines: list  # (leaves,) bool: a line leaf, else a flat
    indptr: list  # (leaves + 1,)
    indices: list  # (divisions,)
    offsets: list  # (leaves,) t0 of a line leaf, t(x) = t0 + <frame[0], x>
    divisor: np.ndarray  # (nodes,) the product of a node's divisors at it
    param: np.ndarray  # (nodes,) a line leaf node's t; 0 at flat nodes
    reach: list  # (leaves,) the leading variables the accumulator holds before the leaf
    restrict: list  # (leaves,) the d its correction is restricted by (see restricted_kernel), or 0
    compact: int  # the widest reach whose row_kernel correction reads only those variables (see _correction_paths)
    multiply_adds: int  # of a solve, see _step_multiply_adds


def _step_multiply_adds(m: int, n: int, starts, lines, table, indptr, indices, reads, restrict, direction) -> dict:
    """The multiply-adds of each step of a solve, summed over the leaves.

    The arguments are a plan's (see Plan), its per-leaf vectors as arrays,
    with reads, per leaf, the p leading variables row_kernel reads for its
    correction (0 for none).  A leaf of rows nodes that divides by c
    hyperplanes costs:

    - correct: rows ((m + 1) c + 1) for the divisor product and one
      division, and for the correction either rows 2 N(p, n) through
      row_kernel, or, restricted by d (see restricted_kernel) with q = m - d,
      2 N(q, n) for the suffix row and its dot, d N(q + 1, n - 1) for the
      products per power and n per row off a flat's base for Horner's rule;
    - solve: on a line, with k = rows - 1, 3 k (k + 1) / 2 for the divided
      differences, k (k + 1) for their monomial expansion and, for the k
      lifts of the embedding, counted as a divisor's, (1 + the pairs of
      direction) N(m + 1, k - 1) and k for the added constants; on a flat,
      (m + 2) rows;
    - lift: by divisor row j = 0 .. c - 1, (1 + the non-zeros of its normal)
      N(m, n - c + j), the last adding into the accumulator.
    """
    rows, count = starts[:-1] - starts[1:], np.diff(indptr)
    k = rows[lines] - 1
    below = np.array([0] + [count_total(m + 1, d) for d in range(n)])  # N(m + 1, k - 1), none at k = 0
    sizes = np.array([count_total(m, d) for d in range(n + 1)])  # N(m, d)
    heads = np.array([0] + [count_total(p, n) for p in range(1, m + 1)])  # N(p, n), none read at p = 0
    # a restricted correction's work besides its rows, N(0, n) = 1 the constant, and Horner's rule off a flat's base
    restricted = restrict > 0
    tails = sum(2 * comb(m - d + n, n) + d * comb(m - d + n, n - 1) for d in restrict[restricted].tolist())
    horner = n * int((rows - ~lines)[restricted].sum())
    # the lift by division d of leaf i starts from degree n - c + (d - indptr[i])
    degree = np.repeat(n - count - indptr[:-1], count) + np.arange(indices.size)
    nonzeros = np.count_nonzero(table[:, 1:], axis=1)
    return {
        "correct": int(rows @ (2 * heads[reads] + (m + 1) * count + 1)) + tails + horner,
        "solve": int((3 * k * (k + 1) // 2 + k * (k + 1) + (1 + len(direction)) * below[k] + k).sum())
        + (m + 2) * int(rows[~lines].sum()),
        "lift": int((1 + nonzeros[indices]) @ sizes[degree]),
    }


def _moving_axes(blocks: np.ndarray) -> np.ndarray:
    """For each block of rows, (blocks, rows, m), the d that restricted_kernel
    reads it with, else 0: d = 1 + the last coordinate in which its rows
    differ, where that is 1 (a line), or where the first row is zero before
    d and row i + 1 non-zero there only at coordinate i (a flat)."""
    _, rows, m = blocks.shape
    differ = (blocks != blocks[:, :1]).any(axis=1)
    d = np.where(differ.any(axis=1), m - differ[:, ::-1].argmax(axis=1), 0)
    row, col = np.arange(rows)[:, None], np.arange(m)
    stray = (blocks != 0) & (col < d[:, None, None]) & (row != col + 1)
    return np.where((d == 1) | ((rows == d + 1) & ~stray.any(axis=(1, 2))), d, 0)


# the bytes a temporary array holds beside its reals, a 1-D ndarray's
# header with its shape and strides, and those of row_kernel's step per
# degree block, a tuple and its list slot, as tracemalloc counts them
ARRAY_BYTES, STEP_BYTES = 112, 72


def _correction_paths(m: int, n: int, reach, moving) -> tuple:
    """compact, and per leaf the d restricted_kernel corrects it with or 0:
    of the paths open to a leaf, the one whose temporaries hold the fewest
    bytes at their peak, 8 per real and ARRAY_BYTES per array (the output,
    the same on every path, left out).

    row_kernel on (p, n) holds its buffer, N(p, n) reals, its n block views
    and a row, and then the top block's temporary, T(p, n) reals (T the top
    degree block), or the next block's two, 2 T(p, n - 1): n + 4 arrays,
    and a step (STEP_BYTES) per block.  Read compactly, up to reach
    compact, it also holds the gathered N(p, n) coefficients.
    restricted_kernel at d, with q = m - d, holds its suffix row and the
    same temporaries, then the row, the n x d sums and one power's gathered
    coefficients, d N(q, n - 1) at most: 7 arrays at most.
    """

    def total(p, k):  # N(p, k), and N(0, k) = 1: the constant alone
        return count_total(p, k) if p else 1

    def top(p, k):  # T(p, k), 0 where degree k takes no temporary
        return count_degree(p, k) if p and k > 1 else 0

    def row(p):  # a monomial row and its largest temporaries
        return total(p, n) + max(top(p, n), 2 * top(p, n - 1))

    def kernel(p):
        return 8 * row(p) + ARRAY_BYTES * (n + 4) + STEP_BYTES * n

    if not reach.any():  # a one-leaf tree: its leaf reads no correction
        return 0, np.zeros_like(moving)
    full, widest = kernel(m), min(int(reach.max()), m - 1)
    held = [full] + [kernel(p) + 8 * count_total(p, n) + ARRAY_BYTES for p in range(1, widest + 1)]
    compact = sum(held[p] <= full for p in range(1, widest + 1))
    restricted = np.zeros(m + 1, np.int64)
    for d in np.unique(moving[(reach > 0) & (moving > 0)]).tolist():
        reals = max(row(m - d), total(m - d, n) + d * total(m - d, n - 1) + n * d)
        restricted[d] = 8 * reals + ARRAY_BYTES * 7
    kernel_held = np.array(held[: compact + 1])[np.where(reach <= compact, reach, 0)]
    return compact, np.where((reach > 0) & (moving > 0) & (restricted[moving] <= kernel_held), moving, 0)


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
    and line offsets, each with the bits of its leaf's own expression.  A
    degree-0 leaf counts as a line, whose one node has parameter 0.  A leaf's
    solution and lifts live in the axes where its frame rows (frame[0] on a
    line, frame[:d] on a flat) and divisor normals are non-zero, so a leaf
    reads what the lifts before it reached; a tree with no split has one
    leaf, which reads nothing, and skips the crossing walk and this pass.
    Each leaf that reads a correction is looked at, one leaf sigma at a time,
    for the d its rows move in (see _moving_axes), and _correction_paths
    picks its path and compact by the bytes each path holds.  Last, the
    walk's per-leaf vectors become lists, and each table row also takes its
    lift form: every split's normal is a frame row, whose pairs the rows of
    its splits share.
    """
    nodes, tree, hyperplanes = assemble_generic(m, n, frame=frame, lam=lam, kappa=kappa, mu=mu)
    points = nodes.points
    points.flags.writeable = False
    frame = np.eye(m) if frame is None else frame
    direction = frame[0]
    shift = np.zeros(m) if mu is None else mu
    axis, normals = hyperplanes.axis, hyperplanes.frame
    moved = np.array([normal @ shift for normal in normals])  # a dot per axis: a matrix product may round apart
    table = np.column_stack((-hyperplanes.offset - moved[axis], normals[axis]))
    leaf, cross, split = np.array(tree.leaf), np.array(tree.cross + [-1]), np.array(tree.split + [-1])
    bases, lo = (vertex_base(tree, hyperplanes) + shift)[tree.leaf_flat], tree.leaf_lo
    crossed, up = np.full((leaf.size, n), -1, np.intp), cross[leaf]
    for column in range(n - 1, -1, -1) if table.size else ():  # each leaf's next split up, -1 past the root
        crossed[:, column] = up
        up = cross[split[up]]
    groups = tree.leaf_groups
    terms = [linear_terms(normal) for normal in normals]  # one per axis, shared by its splits' rows
    del tree, hyperplanes, normals  # freed before the per-node vectors
    walk = crossed[::-1]
    valid = walk >= 0
    starts, indptr = np.concatenate(([len(nodes)], lo[::-1])), np.concatenate(([0], valid.sum(1).cumsum()))
    indices = walk[valid]
    divisor = np.empty(len(nodes))
    with np.errstate(over="ignore"):  # rejected next, naming the leaf
        for (d, k), at in groups.items():
            block = lo[at, None] + np.arange(count_total(d, k))
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
        if d == 1 or k == 0:  # its leaves' walk positions are lo.size - 1 - at
            block, base = lo[at, None] + np.arange(k + 1), bases[at, None]
            param[block] = (points[block] - base) @ direction  # a gemv per leaf, as on a leaf's own line
            lines[-1 - at] = True
            offsets[-1 - at] = -(base @ direction[:, None])[:, 0, 0]  # a dot per leaf: one gemv may round apart
    reach = np.zeros(lo.size, np.intp)  # a one-leaf tree's leaf reads no correction
    if table.size:
        ends = m - np.argmax(np.vstack((frame, table[:, 1:]))[:, ::-1] != 0, axis=1)  # 1 + a row's last non-zero axis
        # a line reaches as far as frame[0], a flat of d + 1 rows as frame[:d], and then its divisor normals
        spans = np.maximum.accumulate(ends[:m])[np.where(lines, 0, starts[:-1] - starts[1:] - 2)]
        np.maximum.at(spans, np.repeat(np.arange(lines.size), np.diff(indptr)), ends[m + indices])
        reach[1:] = np.maximum.accumulate(spans)[:-1]
    moving = np.zeros(lo.size, np.intp)
    for (d, k), at in groups.items():  # looked for only where a correction is read
        if reach[-1 - at].any():
            moving[-1 - at] = _moving_axes(points[lo[at, None] + np.arange(count_total(d, k))])
    compact, restrict = _correction_paths(m, n, reach, moving)
    reads = np.where(restrict > 0, 0, np.where(reach <= compact, reach, m))
    direction = linear_terms(direction)
    ops = sum(_step_multiply_adds(m, n, starts, lines, table, indptr, indices, reads, restrict, direction).values())
    rows = tuple(zip(table[:, 0].tolist(), [terms[a] for a in axis.tolist()]))
    # the frame in C order, as solve_linear takes a flat's active rows
    frame = np.ascontiguousarray(frame)
    starts, lines, indptr, indices, offsets, reach, restrict = (
        a.tolist() for a in (starts, lines, indptr, indices, offsets, reach, restrict)
    )
    return Plan(
        nodes, frame, table, rows, direction, starts, lines, indptr, indices, offsets, divisor, param, reach,
        restrict, compact, ops,
    )


# key -> plan, the most recently used last; a hit relinks in place, as a pop
# and re-insert would resize the table every few dozen hits, inside a solve
_plans: OrderedDict = OrderedDict()
PLAN_CACHE_SIZE = 32
# reals that the kept plans' points, divisor tables, per-node vectors and
# frames may hold together, each entry of the walk's lists counted as one;
# a plan was measured to hold at most 22.1 bytes per real plus 10 KB, so
# all hold about 6.1 MB
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
        lists = (kept.rows, kept.direction, kept.starts, kept.lines, kept.indptr, kept.indices, kept.offsets)
        size += sum(map(len, lists)) + len(kept.reach) + len(kept.restrict)
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
    for the values and, when the tree has more than one leaf,
    N + N(m, n-1) + N(m, n-2) for the accumulator and a leaf's lift to
    degree n - 1, its input and output, N = N(m,n); the last lift adds into
    the accumulator in place) and largest_single_alloc (m N, the nodes).
    The closed form leaves out a correction's monomial row (N at most) with
    its temporaries (see evaluate_rows and restricted_kernel).  Every lift,
    a line's embedding included, reads the (m, n) order's lift table, so a
    solve builds no other order's.

    A plan holds the nodes and every quantity of the walk that does not
    depend on f, the walk's per-leaf vectors and divisor rows already in
    the Python numbers it reads, so a repeat call does only f's arithmetic.
    The newest PLAN_CACHE_SIZE plans of (m, n, config) are kept while they
    weigh PLAN_CACHE_REALS reals in all (about 6.1 MB at most), so a plan
    that alone weighs more, (20, 4) upward, is never kept; clear_plans
    releases them.  The returned nodes share the plan's read-only points and its
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
    starts, indptr, indices, rows, direction = plan.starts, plan.indptr, plan.indices, plan.rows, plan.direction
    order = build_order(m, n)
    lifts = order.lifts()  # every lift's, of each degree a prefix

    def solve_leaf(i):
        """Leaf i's interpolant of its corrected values, as coefficients."""
        lo, hi, p, d = starts[i + 1], starts[i], plan.reach[i], plan.restrict[i]
        pts = points[lo:hi]
        eps = provenance[lo]  # a leaf divides by the hyperplane of each 0 bit
        labels = (eps[:j] + "1" for j, bit in enumerate(eps) if bit == "0")
        # none before the first lift; then restricted to the leaf's line or flat, or up to reach compact the (p, n) part
        correction = None if not p else acc if d or p > plan.compact else MultiPoly(p, n, acc.coeffs[order.head(p)])
        corrected = corrected_value(values[lo:hi], correction, pts, plan.divisor[lo:hi], labels, d)
        del correction  # freed before the solve
        if plan.lines[i]:
            return solve_on_line(plan.param[lo:hi], corrected, plan.offsets[i], direction, lifts)
        return solve_linear(corrected, plan.frame[: hi - lo - 1], pts[0])

    def add_leaf(i):
        """Solve leaf i, lift it by its divisors, the last lift adding into acc."""
        first, last = indptr[i], indptr[i + 1]
        coeffs = solve_leaf(i)
        for r in range(first, last - 1):  # the lift by divisor row r ends at degree n - (last - 1 - r)
            coeffs = mul_linear(coeffs, rows[indices[r]], lifts)
        mul_linear(coeffs, rows[indices[last - 1]], lifts, out=acc.coeffs)

    acc = MultiPoly(m, n, solve_leaf(0))  # the first leaf divides by nothing, so its interpolant is of degree n
    for i in range(1, len(plan.lines)):
        add_leaf(i)
    peak = (m + 1) * total  # the nodes and the values
    if len(plan.lines) > 1:
        peak += total + count_total(m, n - 1) + count_total(m, n - 2)
    if not np.isfinite(acc.coeffs).all():
        raise ValueError("the interpolant overflowed floating point")
    report = {"multiply_adds": plan.multiply_adds, "peak_reals_stored": peak, "largest_single_alloc": m * total}
    return acc, nodes, report
