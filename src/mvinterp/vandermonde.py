"""Dense Vandermonde baselines: build, pivoted LU, inversion, conditioning.

The matrix V has one row per node and one column per monomial in the
canonical order, so V @ coeffs evaluates a polynomial at every node at
once.  Solving V x = f gives the interpolation coefficients directly and
serves as the oracle the fast solver is checked against.

Regularity of V is also the genericity criterion for a node set, but the
raw monomial-basis matrix is a numerically unusable witness once node
coordinates grow: entries span hundreds of orders of magnitude and LU
pivots sink below any honest threshold even for perfectly regular sets.
genericity_check therefore uses two progressively cheaper formulations
that are regularity-equivalent in exact arithmetic:

- structured route: when the node set keeps its assembled leaf blocks and
  their provenance, the determinant factors exactly into leaf-local
  Vandermonde determinants times the values of each split hyperplane at
  the nodes that must avoid it (peel one hyperplane at a time: in
  coordinates adapted to H the matrix is block triangular with blocks
  V(P_on_H) and diag(Q_H(p)) · V(P_off_H)).  Every factor is O(1)-scaled,
  so the pivot test is applied where it means something.  The factors of
  leaves or splits of one sigma are formed and tested together.
- dense route: map the nodes affinely into [-1,1]^m (an affine image of a
  generic set is generic), balance rows and columns by exact powers of
  two, and run pivoted LU with the relative threshold.

lu_solve and invert are the baseline solvers and face the caller's matrix
as given, up to exact power-of-two row equilibration, which changes no
mantissa bits and preserves solutions exactly.

SciPy's LAPACK wrappers are imported inside the functions that call them,
because they take longer to import than the rest of the package and the
solver, node and file paths never use them: a process pays their import
on its first dense call.
"""

from __future__ import annotations

import warnings
from math import comb

import numpy as np

from .exceptions import SingularMatrixError
from .monomials import build_order, count_total
# leaf_slices is unused here, but the benchmark's tracer wraps vandermonde.leaf_slices
from .nodes import GEOMETRY_RTOL, NodeSet, leaf_slices  # noqa: F401
from .tree import build_tree, eps_label

__all__ = [
    "build_vandermonde",
    "lu_solve",
    "invert",
    "genericity_check",
    "cond_two",
    "lu_factor_ops",
    "lu_solve_ops",
    "invert_ops",
    "PIVOT_RTOL",
    "COND_DESK_LIMIT",
]

PIVOT_RTOL = 1e-13
# explicit inverses (1-norm cond) stay desk-scale
COND_DESK_LIMIT = 3000


def lu_factor_ops(size: int) -> int:
    """Multiply-adds of partial-pivot LU: sum of (size-k)^2 + (size-k)."""
    return (size**3 - size) // 3


def lu_solve_ops(size: int) -> int:
    """Multiply-adds of one forward+back substitution pair."""
    return size * size


def invert_ops(size: int) -> int:
    """Factorization plus one substitution pair per column."""
    return lu_factor_ops(size) + size * lu_solve_ops(size)


def _points_of(nodes) -> np.ndarray:
    return np.asarray(getattr(nodes, "points", nodes), dtype=float)


def build_vandermonde(nodes, m: int, n: int) -> np.ndarray:
    """V[i, j] = monomial j evaluated at node i, columns in canonical order.

    Accepts a NodeSet or a raw (count, m) array.  Columns are filled one
    degree block at a time through the parent recursion
    column[j] = column[parent(j)] * coordinate[var(j)].  V is Fortran-ordered,
    the layout LAPACK factors in place.
    """
    pts = _points_of(nodes)
    total = count_total(m, n)
    if pts.ndim != 2 or pts.shape[1] != m:
        raise ValueError(f"nodes must have shape (count, {m}), got {pts.shape}")
    if pts.shape[0] != total:
        raise ValueError(
            f"node count {pts.shape[0]} does not match N({m},{n}) = {total}"
        )
    v = np.empty((total, total), order="F")
    _fill_vandermonde(v, pts, m, n)
    return v


def _fill_vandermonde(v: np.ndarray, pts: np.ndarray, m: int, n: int) -> None:
    """Fill a Fortran-ordered V in place one degree block at a time.

    The fill runs over the rows of v.T: each run of one variable in a
    block is its parent rows, a suffix of the block before, times that
    coordinate's row of pts.T, written straight into place, so it writes
    contiguously and needs no block temporary.
    """
    order = build_order(m, n)
    vt, coords = v.T, np.ascontiguousarray(pts.T)
    vt[0] = 1.0
    for k in range(1, n + 1):
        for row, (run, parents) in zip(coords, order.runs(k)):
            np.multiply(vt[parents], row, out=vt[run])


def _pow2_row_scales(v: np.ndarray) -> np.ndarray:
    """Per-row power-of-two scale with row_max / scale in [1/2, 1), in a matrix or a stack."""
    row_max = np.abs(v).max(axis=-1)
    _, exps = np.frexp(row_max)
    return np.ldexp(np.ones_like(row_max), exps)  # 1 for a zero row


def _require_square(v: np.ndarray) -> None:
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"matrix must be square, got shape {v.shape}")
    if not v.size:
        raise ValueError("matrix is empty: shape (0, 0)")


def _factor_solve(v: np.ndarray, rhs) -> np.ndarray:
    """Row-equilibrated partial-pivot LU of v, then one substitution.

    LU factors the row-scaled matrix v / scales[:, None], each scale the
    power of two that brings its row's max |entry| into [1/2, 1).  rhs is
    a vector, or None for the inverse.  The singularity cutoff is
    PIVOT_RTOL * max|scaled entry|: a pivot |diag U| at or below it raises
    SingularMatrixError, and a non-finite entry, which makes the cutoff
    non-finite, raises ValueError naming its row.
    """
    import scipy.linalg  # on first use: only the dense routines need SciPy

    _require_square(v)
    scales = _pow2_row_scales(v)
    scaled = v / scales[:, None]
    threshold = PIVOT_RTOL * np.abs(scaled).max()
    if not np.isfinite(threshold):
        row, col = np.argwhere(~np.isfinite(v))[0]
        raise ValueError(f"matrix row {row} is not finite: entry {col} is {v[row, col]}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(scaled, overwrite_a=True, check_finite=False)
    pivots = np.abs(np.diagonal(lu))
    small = int(np.argmin(pivots))
    if pivots[small] <= threshold:
        raise SingularMatrixError(
            f"matrix is singular to working precision: pivot {small} is "
            f"{pivots[small]:.3e} (threshold {threshold:.3e}); "
            "the nodes appear degenerate"
        )
    # V = diag(scales) @ Vhat, so V^-1 = Vhat^-1 @ diag(1/scales)
    rhs = np.diag(1.0 / scales) if rhs is None else rhs / scales
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


def lu_solve(v, rhs) -> np.ndarray:
    """Solve V x = rhs by partial-pivoted elimination.

    Raises SingularMatrixError when a pivot falls below the relative
    threshold, and ValueError naming the first non-finite row of V or rhs,
    or a V that is not square or is empty.
    """
    v = np.asarray(v, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (v.shape[0],):
        raise ValueError(f"rhs shape {rhs.shape} does not match matrix {v.shape}")
    bad = np.flatnonzero(~np.isfinite(rhs))
    if bad.size:
        raise ValueError(f"rhs row {bad[0]} is not finite: {rhs[bad[0]]}")
    return _factor_solve(v, rhs)


def invert(v) -> np.ndarray:
    """Explicit inverse via one LU factorization and N substitution pairs.

    Raises SingularMatrixError and ValueError as lu_solve does.
    """
    return _factor_solve(np.asarray(v, dtype=float), None)


def _box_normalize(pts: np.ndarray):
    """Affine per-coordinate map onto [-1,1]^m; returns (mapped, sum log h).

    Genericity is invariant under full-rank affine maps, and this one
    changes log|det V| by exactly degree_sum * sum(log h) where degree_sum
    is the total exponent each variable contributes over all monomials.
    """
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    center = (lo + hi) / 2.0
    half = np.where(hi > lo, (hi - lo) / 2.0, 1.0)
    with np.errstate(divide="ignore"):
        log_half_sum = float(np.log(half).sum())
    return (pts - center) / half, log_half_sum


def _abs_max(v: np.ndarray, axis=None):
    """Max |entry| of v, along axis when given, with no |v| copy."""
    return np.maximum(v.max(axis=axis), -v.min(axis=axis))


def _abs_column_sums(v: np.ndarray) -> np.ndarray:
    """Column sums of |v|, taking |v| a block of at most 2^16 entries at a time."""
    sums = np.empty(v.shape[1])
    width = max(1, 2**16 // v.shape[0])
    for lo in range(0, v.shape[1], width):
        np.abs(v[:, lo : lo + width]).sum(axis=0, out=sums[lo : lo + width])
    return sums


def _balance_pow2(v: np.ndarray):
    """Two-sided exact power-of-two balancing, in place.

    One row half-pass divides every row by the power of two that brings its
    max |entry| into [1/2, 1); one column half-pass then does the same for
    every column.  For finite entries below 2^1023 that is the fixed point
    of alternating passes: after the row pass every entry is below 1, so
    the column pass only scales columns up, to maxima below 1, and leaves
    unscaled the column that holds each row's max.  A half-pass that scales
    nothing skips its divide.

    Returns (v, total_exp) where total_exp is the summed binary exponent of
    all row and column scales, so log|det unbalanced| =
    log|det balanced| + total_exp * log 2.
    """
    total_exp = 0
    for axis in (1, 0):
        mx = _abs_max(v, axis)
        _, exps = np.frexp(mx)  # 0 for a zero row or column
        if exps.any():
            scales = np.ldexp(np.ones_like(mx), exps)
            v /= scales[:, None] if axis == 1 else scales
            total_exp += int(exps.sum())
    return v, total_exp


def _variable_degree_sum(m: int, n: int) -> int:
    """Sum of one variable's exponent over all monomials of degree <= n:
    by symmetry their summed degrees over m, which is C(m + n, m + 1)."""
    return comb(m + n, m + 1)


def _dense_certificate(pts: np.ndarray, m: int, n: int) -> dict:
    """Box-normalized, balanced, pivoted-LU regularity test.

    abs_det_log is mapped back to the raw monomial-basis matrix of the
    unnormalized points.  cond_1 describes the normalized balanced system
    (the best legally rescaled dense problem) and is deliberately not
    gated on the pivot test: a huge finite value is the honest report for
    a near-singular system, and an exactly zero pivot reports inf.  V is
    the one N x N array: it is filled, balanced and factored in place, and
    for cond_1 LAPACK's getri overwrites its LU with the exact inverse.
    """
    import scipy.linalg.lapack  # on first use: only the dense routines need SciPy

    total = pts.shape[0]
    mapped, log_half_sum = _box_normalize(pts)
    v = np.empty((total, total), order="F")
    _fill_vandermonde(v, mapped, m, n)
    v, scale_exp = _balance_pow2(v)
    threshold = PIVOT_RTOL * _abs_max(v)
    norm_balanced = float(_abs_column_sums(v).max())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(v, overwrite_a=True, check_finite=False)
    pivots = np.abs(np.diagonal(lu))
    generic = bool(pivots.min() > threshold)
    with np.errstate(divide="ignore"):
        abs_det_log = float(
            np.log(pivots).sum()
            + scale_exp * np.log(2.0)
            + _variable_degree_sum(m, n) * log_half_sum
        )
    cond_1 = float("nan")
    if total <= COND_DESK_LIMIT:
        with np.errstate(all="ignore"):
            # the queried workspace (N x block size) lets getri run blocked
            lwork = int(scipy.linalg.lapack.dgetri_lwork(total)[0])
            inv, info = scipy.linalg.lapack.dgetri(lu, piv, lwork=lwork, overwrite_lu=True)
            cond_1 = float("inf") if info else norm_balanced * float(_abs_column_sums(inv).max())
        if not np.isfinite(cond_1):
            cond_1 = float("inf")
    return {
        "generic": generic,
        "abs_det_log": abs_det_log,
        "cond_1": cond_1,
        "route": "dense",
    }


def _structured_certificate(nodes: NodeSet, m: int, n: int, tree, hyperplanes):
    """Regularity via the construction's exact determinant factorization.

    Returns a result dict, or None when the node set lacks the on/off
    structure (the caller then falls back to the dense route): the
    provenance must give the tree's leaf blocks in storage order, and the
    rows mid:hi of each split must lie on its hyperplane.  The normal of an
    axis is its row of the hyperplanes' frame, or else the axis; each offset
    is read off the plane's first node, <normal, points[mid]>, so a
    translated node set certifies as its construction does.  Pivot-style
    thresholds are applied factor by factor: leaf-local LU pivots, QR
    diagonals of degree-1 leaf offsets, and each hyperplane value at rows
    lo:mid as a 1x1 pivot.  Membership and separation scale by
    max(1, |offset|, max |<normal, p>|), taken over a split's on-rows and
    off-rows respectively.  Each sigma is one array pass: line leaves take
    one LAPACK getrf call each, flat leaves one stacked QR, splits one
    gather from a projection made once per axis.
    """
    import scipy.linalg.lapack  # on first use: only the dense routines need SciPy

    normals = np.eye(m) if hyperplanes is None else hyperplanes.for_tree(tree).frame
    for vertex in tree.leaf:
        lo, hi = tree.lo[vertex], tree.hi[vertex]
        if nodes.provenance[lo:hi].count(eps_label(tree.eps[vertex])) != hi - lo:
            return None
    points = nodes.points
    generic = True
    abs_det_log = 0.0
    with np.errstate(divide="ignore"):
        for (d, k), at in tree.leaf_groups.items():
            pts = points[tree.leaf_lo[at, None] + np.arange(k + 1 if d == 1 else d + 1)]
            rel = pts - pts[:, :1]
            if d == 1:
                # stacked products, so that each leaf's t has the bits of its own dot products
                length = np.sqrt(rel[:, -1:] @ rel[:, -1:].transpose(0, 2, 1)).ravel()
                if not length.all():
                    return None
                direction = rel[:, -1] / length[:, None]
                t = (rel @ direction[:, :, None])[..., 0]
                resid = rel - t[..., None] * direction[:, None]
                if (np.abs(resid).max(axis=(1, 2)) > GEOMETRY_RTOL * (1 + np.abs(t).max(axis=1))).any():
                    return None
                local = np.vander(t.ravel(), k + 1, increasing=True).reshape(-1, k + 1, k + 1)
                scales = _pow2_row_scales(local)
                scaled = local / scales[..., None]
                pivots = np.abs([np.diagonal(scipy.linalg.lapack.dgetrf(a)[0]) for a in scaled])
                if (pivots.min(axis=1) <= PIVOT_RTOL * np.abs(scaled).max(axis=(1, 2))).any():
                    generic = False
                abs_det_log += float(np.log(pivots).sum() + np.log(scales).sum())
            else:
                r = np.linalg.qr(rel[:, 1:].transpose(0, 2, 1), mode="r")
                diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
                if (diag.min(axis=1) <= PIVOT_RTOL * np.maximum(1.0, diag.max(axis=1))).any():
                    generic = False
                abs_det_log += float(np.log(diag).sum())
        lo, mid, axis = tree.split_lo, np.array(tree.mid), None
        for (d, k), at in tree.split_groups.items():
            if d - 1 != axis:
                axis = d - 1
                along = points @ normals[axis]
            on = along[mid[at, None] + np.arange(count_total(d - 1, k))]
            off = along[lo[at, None] + np.arange(count_total(d, k - 1))]
            offset = on[:, :1]
            if (np.abs(on - offset) > GEOMETRY_RTOL * np.abs(on).max(1, keepdims=True).clip(1.0)).any():
                return None
            values = np.abs(off - offset)
            if (values <= PIVOT_RTOL * np.maximum(np.abs(offset), np.abs(off).max(1, keepdims=True)).clip(1.0)).any():
                generic = False
            abs_det_log += float(np.log(values).sum())
    return {
        "generic": generic,
        "abs_det_log": abs_det_log if generic else float("-inf"),
        "route": "structured",
    }


def genericity_check(
    nodes,
    m: int,
    n: int,
    tree=None,
    hyperplanes=None,
) -> dict:
    """Decide regularity of V_{m,n}(nodes) and report its scale.

    Returns {"generic", "abs_det_log", "cond_1", "route"}.  Singularity is
    a result, not an error.  A NodeSet whose provenance gives the leaf
    blocks of the (m, n) tree in storage order, as assembly lays them out,
    is certified by the structured determinant factorization: each split's
    rows lo:mid divide by its hyperplane and rows mid:hi lie on it.  The
    normals are those of the hyperplanes given, or else the axes; offsets
    are read off the nodes.  Anything else goes through the dense
    normalized pivoted LU (so does a structured set whose on-rows leave
    their plane).  cond_1 always describes the dense normalized system and
    is exact: getri inverts its LU in place, 4/3 N^3 flops, so it is only
    computed for N <= COND_DESK_LIMIT and is nan above that.  A node set of
    the wrong shape or with a non-finite coordinate, or hyperplanes of
    another tree, raise ValueError.
    """
    pts = _points_of(nodes)
    total = count_total(m, n)
    if pts.shape != (total, m):
        raise ValueError(
            f"node set shape {pts.shape} does not match (N({m},{n}), {m}) = "
            f"({total}, {m})"
        )
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ValueError(f"node {bad[0]} is not finite: {pts[bad[0]].tolist()}")
    result = None
    if isinstance(nodes, NodeSet) and m >= 2 and n >= 2:
        tree = build_tree(m, n) if tree is None else tree
        result = _structured_certificate(nodes, m, n, tree, hyperplanes)
    if result is None:
        return _dense_certificate(pts, m, n)
    if total <= COND_DESK_LIMIT:
        result["cond_1"] = _dense_certificate(pts, m, n)["cond_1"]
    else:
        result["cond_1"] = float("nan")
    return result


def cond_two(v) -> float:
    """2-norm condition number from LAPACK singular values.

    Returns inf when the smallest singular value is at most machine
    epsilon times the largest: the matrix is rank-deficient to working
    precision, and LAPACK reports such a value as rounding noise, not 0.
    A matrix that is not square or is empty raises ValueError.
    """
    import scipy.linalg  # on first use: only the dense routines need SciPy

    v = np.asarray(v, dtype=float)
    _require_square(v)
    svals = scipy.linalg.svdvals(v)
    if svals[-1] <= np.finfo(float).eps * svals[0]:
        return float("inf")
    return float(svals[0] / svals[-1])
