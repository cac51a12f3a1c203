"""The structured certificate and the separation guard against plain
references that work one leaf and one split at a time.

Both must give the same verdicts, routes and messages as the references,
with abs_det_log within 1e-12 relative (the sums may run in another order).
"""

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from conftest import tree_splits
from mvinterp import nodes as nodes_module
from mvinterp.exceptions import GeometryConfigError
from mvinterp.nodes import GEOMETRY_RTOL, NodeSet, assemble_generic
from mvinterp.tree import eps_label
from mvinterp.vandermonde import PIVOT_RTOL, _structured_certificate, genericity_check

SHAPES = [*itertools.product(range(2, 7), range(2, 7)), (10, 4), (8, 6), (3, 12), (2, 9), (2, 25)]


def reference_certificate(nodes, m, n, tree, hyperplanes):
    """The structured certificate one leaf and one split at a time: a line
    leaf by the row-equilibrated pivoted LU of its Vandermonde matrix in its
    line parameter, a flat leaf by the QR of its edges, a split by the values
    of its hyperplane (offset read off its first on-row) at its off-rows."""
    if nodes.provenance != tree.provenance():
        return None
    points = nodes.points
    generic = True
    abs_det_log = 0.0
    with np.errstate(divide="ignore"):
        for v in tree.leaf:
            pts = points[tree.lo[v] : tree.hi[v]]
            if tree.sigma[v][0] == 1:
                direction = pts[-1] - pts[0]
                length = float(np.linalg.norm(direction))
                if length == 0.0:
                    return None
                direction /= length
                t = (pts - pts[0]) @ direction
                resid = pts - pts[0] - t[:, None] * direction
                if np.abs(resid).max() > GEOMETRY_RTOL * (1.0 + np.abs(t).max()):
                    return None
                local = np.vander(t, increasing=True)
                _, exps = np.frexp(np.abs(local).max(axis=1))
                scales = np.ldexp(1.0, exps)
                scaled = local / scales[:, None]
                threshold = PIVOT_RTOL * np.abs(scaled).max()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                    lu, _ = scipy.linalg.lu_factor(scaled, check_finite=False)
                pivots = np.abs(np.diagonal(lu))
                if pivots.min() <= threshold:
                    generic = False
                abs_det_log += float(np.log(pivots).sum() + np.log(scales).sum())
            else:
                r = np.linalg.qr((pts[1:] - pts[0]).T, mode="r")
                diag = np.abs(np.diagonal(r))
                if diag.min() <= PIVOT_RTOL * max(1.0, diag.max()):
                    generic = False
                abs_det_log += float(np.log(diag).sum())
        axes = np.eye(m)
        for key, axis, lo, mid, hi in tree_splits(tree):
            normal = axes[axis] if hyperplanes is None else hyperplanes[key].normal
            on, off = points[mid:hi] @ normal, points[lo:mid] @ normal
            offset = float(on[0])
            on_scale, off_scale = (max(1.0, abs(offset), float(np.abs(v).max())) for v in (on, off))
            if np.abs(on - offset).max() > GEOMETRY_RTOL * on_scale:
                return None
            values = off - offset
            if np.abs(values).min() <= PIVOT_RTOL * off_scale:
                generic = False
            abs_det_log += float(np.log(np.abs(values)).sum())
    return {
        "generic": generic,
        "abs_det_log": abs_det_log if generic else float("-inf"),
        "route": "structured",
    }


def reference_separation(tree, hyperplanes, points, provenance, shift=None):
    """The separation guard one split at a time, in preorder."""
    failures = []
    for key, _, lo, mid, _ in tree_splits(tree):
        spec = hyperplanes[key]
        offset = spec.offset if shift is None else spec.offset + float(spec.normal @ shift)
        off = points[lo:mid]
        gaps = np.abs(off @ spec.normal - offset)
        scales = np.maximum(1.0, abs(offset) + np.abs(off) @ np.abs(spec.normal))
        close = np.flatnonzero(gaps <= GEOMETRY_RTOL * scales)
        if close.size:
            label = provenance[lo + close[0]]
            first = provenance.index(label, lo)
            leaf = gaps[first - lo : first - lo + provenance.count(label)]
            failures.append((first, len(key), label, eps_label(key), leaf.min()))
    if failures:
        _, _, label, key, worst = min(failures)
        raise GeometryConfigError(
            f"a node of leaf {label} lies within {worst:.3e} of the "
            f"splitting hyperplane {key}; lambda/kappa configuration collides"
        )


def outcome(check, *args):
    try:
        check(*args)
    except GeometryConfigError as err:
        return str(err)
    return None


@pytest.fixture
def guards_compared(monkeypatch):
    """Run the reference guard next to every guard call of assembly and
    require the same message (or none); returns the list of messages."""
    check = nodes_module._check_separation
    messages = []

    def both(*args):
        expected = outcome(reference_separation, *args)
        got = outcome(check, *args)
        assert got == expected
        messages.append(got)
        if got is not None:
            raise GeometryConfigError(got)

    monkeypatch.setattr(nodes_module, "_check_separation", both)
    return messages


def assert_same_certificate(got, expected):
    assert (got is None) == (expected is None)
    if expected is None:
        return
    assert got["route"] == expected["route"] == "structured"
    assert got["generic"] is expected["generic"]
    if expected["generic"]:
        assert got["abs_det_log"] == pytest.approx(expected["abs_det_log"], rel=1e-12, abs=0)
    else:
        assert got["abs_det_log"] == expected["abs_det_log"] == float("-inf")


def rotated(m):
    return np.linalg.qr(np.random.default_rng([29, m]).standard_normal((m, m)))[0]


def geometries(m):
    mu = np.linspace(0.75, -0.5, m)
    return itertools.product((np.eye(m), rotated(m)), (1.0, 0.5), (Fraction(2), Fraction(11, 10)), (None, mu))


def certify_both(nodes, m, n, tree, hyperplanes):
    expected = reference_certificate(nodes, m, n, tree, hyperplanes)
    assert_same_certificate(_structured_certificate(nodes, m, n, tree, hyperplanes), expected)
    return expected


@pytest.mark.parametrize("m,n", SHAPES)
def test_certificate_and_guard_match_references(m, n, guards_compared):
    certified = 0
    for frame, kappa, lam, mu in geometries(m):
        try:
            nodes, tree, specs = assemble_generic(m, n, frame=frame, lam=lam, kappa=kappa, mu=mu)
        except GeometryConfigError:
            continue
        for hyperplanes in (None, specs):
            certified += certify_both(nodes, m, n, tree, hyperplanes) is not None
    assert len(guards_compared) == 16
    assert certified > 0


@pytest.mark.parametrize("m,n", SHAPES)
def test_tampered_sets_match_references(m, n):
    for frame, mu in ((np.eye(m), None), (rotated(m), np.linspace(0.75, -0.5, m))):
        nodes, tree, specs = assemble_generic(m, n, frame=frame, lam=Fraction(11, 10), mu=mu)
        # without hyperplanes the normals are the axes, which a rotated set's planes are not
        given = (None, specs) if mu is None else (specs,)
        for hyperplanes in given:
            assert certify_both(nodes, m, n, tree, hyperplanes)["generic"] is True
        # a relabelled leaf row and an on-row moved off its plane take the dense route
        labels = list(nodes.provenance)
        labels[0] = labels[-1]
        relabelled = NodeSet(nodes.points, labels, m, n)
        assert certify_both(relabelled, m, n, tree, specs) is None
        *_, hi = tree_splits(tree)[0]
        moved = NodeSet(nodes.points.copy(), nodes.provenance, m, n)
        moved.points[hi - 1] += 0.25 * specs[tree.key[0]].normal
        assert certify_both(moved, m, n, tree, specs) is None
        # two equal nodes in one line leaf: structured, not generic
        line = next(v for v in tree.leaf if tree.sigma[v][0] == 1)
        doubled = NodeSet(nodes.points.copy(), nodes.provenance, m, n)
        doubled.points[tree.lo[line] + 1] = doubled.points[tree.lo[line]]
        for hyperplanes in given:
            assert certify_both(doubled, m, n, tree, hyperplanes)["generic"] is False
        if len(nodes) <= 84:
            for tampered in (relabelled, moved):
                assert genericity_check(tampered, m, n, tree=tree, hyperplanes=specs)["route"] == "dense"
            assert genericity_check(doubled, m, n, tree=tree, hyperplanes=specs)["generic"] is False


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@pytest.mark.parametrize(
    "m,n,config",
    [
        (1, 2, {"kappa": 1e-15}),
        (3, 3, {"lam": 1}),
        (2, 25, {}),
        (2, 30, {}),
        (2, 20, {"frame": rotation(0.3), "lam": 3, "kappa": 2.0, "mu": np.array([-0.5, 0.25])}),
        (4, 4, {"lam": Fraction(10**6 + 1, 10**6)}),
    ],
)
def test_rejected_configurations_match_reference(m, n, config, guards_compared):
    with pytest.raises(GeometryConfigError) as err:
        assemble_generic(m, n, **config)
    # the guard runs only with a tree and hyperplanes; the others fail before
    # or after it, with messages the guard does not make
    if guards_compared and guards_compared[-1] is not None:
        assert str(err.value) == guards_compared[-1]


def test_tampered_guard_inputs_match_reference():
    # nodes moved onto hyperplanes they divide by: leaf 010 onto that of
    # split 011, leaf 011 onto that of the root, both, and leaves 00 and 011
    # onto that of the root (two failing leaves at one split)
    nodes, tree, specs = assemble_generic(3, 3)
    leaf_010, leaf_011, leaf_00 = (5, 1, (0, 1, 1)), (8, 2, (1,)), (1, 2, (1,))
    for rows in ([leaf_010], [leaf_011], [leaf_010, leaf_011], [leaf_00, leaf_011]):
        points = nodes.points.copy()
        for row, axis, key in rows:
            points[row, axis] = specs[key].offset
        expected = outcome(reference_separation, tree, specs, points, nodes.provenance)
        assert expected is not None
        assert outcome(nodes_module._check_separation, tree, specs, points, nodes.provenance) == expected
