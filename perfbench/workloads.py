"""The benchmark's three workloads and the checks on every output.

A workload is prepared from a seed into one round: a fixed list of
operations, each a call into the package's public functions plus a check
against reference code (reference.py) or a property the method must have.
Every run repeats whole rounds, so a run's mix of operations does not
depend on its length.

Program functions are always looked up on their module at call time
(``solver.solve``, not a name bound at import), so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

import numpy as np

from mvinterp import fileio, nodes, solver, vandermonde
from reference import MonomialTable, circle_points, runge


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


@dataclass
class Op:
    """One operation: call(user) runs the program; check(output) returns
    what it measured ({name: error}) and raises CheckFailed past tolerance.

    user is applied to every callback the benchmark hands the program, so a
    traced run can charge callback time to the benchmark, not the program.
    """

    kind: str
    form: str
    shape: tuple
    call: Callable
    check: Callable

    @property
    def size(self) -> int:
        m, n = self.shape
        return comb(m + n, m)


@dataclass
class Prepared:
    ops: list  # one round, in order
    warmup: list  # run once during set-up, unchecked
    peak: Op  # the workload's operation at its largest shape
    baseline_peak: Op | None = None


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _same_nodes(got, expected, shape) -> None:
    _require(
        np.array_equal(got.points, expected.points)
        and list(got.provenance) == list(expected.provenance),
        f"{shape}: the node set differs from the one generated in set-up",
    )


# ---------------------------------------------------------------- large-solve

LARGE_LAMBDA = Fraction(11, 10)
LARGE_SHAPES = ((12, 3), (10, 4), (20, 3), (8, 6), (15, 4), (3, 12))
# Tolerances are about 100x the worst error seen over seeds 1..20 (see
# README.md).  Coefficients of the random polynomials lie in [-1, 1].
LARGE_COEFF_TOL = {
    (12, 3): 1e-10, (10, 4): 1e-10, (20, 3): 1e-8,
    (8, 6): 2e-8, (15, 4): 2e-8, (3, 12): 2e-5,
}
LARGE_LU_TOL = {
    (12, 3): 5e-10, (10, 4): 5e-10, (20, 3): 2e-8,
    (8, 6): 5e-8, (15, 4): 5e-7, (3, 12): 5e-5,
}
# relative node residual of the callback interpolants (reference.residual)
RESIDUAL_TOL = 2e-12


def _coefficient_check(coeffs, tol, shape, nodes_expected=None):
    def check(out):
        poly = out
        if nodes_expected is not None:
            poly, got_nodes, _ = out
            _same_nodes(got_nodes, nodes_expected, shape)
        got = np.asarray(getattr(poly, "coeffs", poly), dtype=float)
        error = float(np.abs(got - coeffs).max())
        _require(error <= tol, f"{shape}: coefficient error {error:.3e} > {tol:.0e}")
        return {"coeff_error": error}

    return check


def _residual_check(table, nodeset, fvalues, shape):
    def check(out):
        poly, got_nodes, _ = out
        _same_nodes(got_nodes, nodeset, shape)
        error = table.residual(nodeset.points, poly.coeffs, fvalues)
        _require(error <= RESIDUAL_TOL, f"{shape}: node residual {error:.3e}")
        return {"node_residual": error}

    return check


def prepare_large(seed: int) -> Prepared:
    rng = np.random.default_rng([seed, 1])
    config = solver.SolveConfig(lam=LARGE_LAMBDA)
    solves, baselines = [], []
    for shape in LARGE_SHAPES:
        m, n = shape
        nodeset, _, _ = nodes.assemble_generic(m, n, lam=LARGE_LAMBDA)
        table = MonomialTable(m, n)
        coeffs = rng.uniform(-1.0, 1.0, len(table))
        values = table.evaluate(nodeset.points, coeffs)
        f, f_on_points = runge(rng.uniform(-1.0, 1.0, m), np.sqrt(m))
        fvalues = f_on_points(nodeset.points)

        def solve_values(user, m=m, n=n, values=values):
            return solver.solve(values, m, n, config)

        def baseline(user, m=m, n=n, nodeset=nodeset, values=values):
            v = vandermonde.build_vandermonde(nodeset, m, n)
            return vandermonde.lu_solve(v, values)

        def solve_callback(user, m=m, n=n, f=f):
            return solver.solve(user(f), m, n, config)

        solves += [
            Op("solve", "values", shape, solve_values,
               _coefficient_check(coeffs, LARGE_COEFF_TOL[shape], shape, nodeset)),
            Op("solve", "callback", shape, solve_callback,
               _residual_check(table, nodeset, fvalues, shape)),
        ]
        baselines.append(Op("baseline", "values", shape, baseline,
                            _coefficient_check(coeffs, LARGE_LU_TOL[shape], shape)))
    largest = max(range(len(LARGE_SHAPES)), key=lambda i: baselines[i].size)
    # the baselines run last so that their N^2 matrices do not disturb
    # the timing of the solves that would follow them
    return Prepared(
        ops=solves + baselines,
        warmup=solves[:2] + baselines[:1],
        peak=solves[2 * largest],
        baseline_peak=baselines[largest],
    )


# ---------------------------------------------------------------- small-solve

SMALL_SHAPES = (
    (1, 6), (5, 1), (3, 0), (2, 3), (3, 3), (2, 6),
    (4, 3), (3, 4), (5, 2), (2, 8), (4, 4), (6, 3),
)
SMALL_CYCLES = 4  # a round is SMALL_CYCLES passes over SMALL_SHAPES
SMALL_KAPPA = 0.5  # used, with a seeded shift mu, on the last pass
# at least 100x the worst coefficient error seen over seeds 1..40
SMALL_COEFF_TOL = {
    (1, 6): 1e-9, (5, 1): 1e-12, (3, 0): 1e-12, (2, 3): 1e-11,
    (3, 3): 1e-10, (2, 6): 1e-6, (4, 3): 1e-9, (3, 4): 1e-8,
    (5, 2): 1e-10, (2, 8): 1e-2, (4, 4): 1e-7, (6, 3): 1e-8,
}


def prepare_small(seed: int) -> Prepared:
    rng = np.random.default_rng([seed, 2])
    tables = {shape: MonomialTable(*shape) for shape in SMALL_SHAPES}
    default_nodes = {
        shape: nodes.assemble_generic(*shape)[0] for shape in SMALL_SHAPES
    }
    ops = []
    for cycle in range(SMALL_CYCLES):
        shifted = cycle == SMALL_CYCLES - 1
        for shape in SMALL_SHAPES:
            m, n = shape
            table = tables[shape]
            coeffs = rng.uniform(-1.0, 1.0, len(table))
            config = solver.SolveConfig(
                kappa=SMALL_KAPPA if shifted else 1.0,
                mu=rng.uniform(-1.0, 1.0, m) if shifted else None,
            )
            expected = default_nodes[shape]
            if shifted:
                expected = nodes.assemble_generic(
                    m, n, kappa=config.kappa, mu=config.mu
                )[0]
            f = table.point_function(coeffs)

            def solve_callback(user, m=m, n=n, f=f, config=config):
                return solver.solve(user(f), m, n, config)

            tol = SMALL_COEFF_TOL[shape]
            ops.append(Op("solve", "shifted" if shifted else "callback", shape, solve_callback,
                          _coefficient_check(coeffs, tol, shape, expected)))
    return Prepared(
        ops=ops,
        warmup=ops[: len(SMALL_SHAPES)],
        peak=max(ops[: len(SMALL_SHAPES)], key=lambda op: op.size),
    )


# ---------------------------------------------------------------- certify

CERT_SHAPES = ((5, 3), (4, 4), (3, 6), (7, 3), (10, 4), (8, 6), (15, 4))
COND_TWO_MAX_N = 84  # cond_two's Jacobi sweeps are O(N^3) each
LOGDET_RTOL = 1e-12
COND_RTOL = 1e-3
SINGULAR_COND = 1e12


def prepare_certify(seed: int) -> Prepared:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for shape in CERT_SHAPES:
        m, n = shape
        mu = rng.uniform(-1.0, 1.0, m)
        expected, _, _ = nodes.assemble_generic(m, n, mu=mu)
        v = None
        if comb(m + n, m) <= COND_TWO_MAX_N:
            v = MonomialTable(m, n).matrix(expected.points)

        def certify(user, m=m, n=n, mu=mu, v=v):
            nodeset, _, _ = nodes.assemble_generic(m, n, mu=mu)
            text = fileio.format_nodes(nodeset)
            parsed = fileio.parse_nodes(text)
            cert = vandermonde.genericity_check(parsed, m, n)
            cond = vandermonde.cond_two(v) if v is not None else None
            return nodeset, parsed, cert, cond

        ops.append(Op("certify", "constructed", shape, certify, _certificate_check(expected, v, shape)))

    points = circle_points(6)
    control_v = MonomialTable(2, 2).matrix(points)

    def certify_control(user):
        nodeset = nodes.NodeSet(points, ["-"] * len(points), 2, 2)
        parsed = fileio.parse_nodes(fileio.format_nodes(nodeset))
        cert = vandermonde.genericity_check(parsed, 2, 2)
        return nodeset, parsed, cert, vandermonde.cond_two(control_v)

    def check_control(out):
        nodeset, parsed, cert, cond = out
        _same_nodes(parsed, nodeset, "circle")
        _require(cert["generic"] is False, "circle: six concyclic points certified generic")
        _require(cond >= SINGULAR_COND, f"circle: cond_two {cond:.3e} is not singular")
        return {"cond_two": cond}

    ops.append(Op("certify", "circle", (2, 2), certify_control, check_control))
    return Prepared(
        ops=ops,
        warmup=[ops[0], ops[-1]],
        peak=max(ops, key=lambda op: op.size),
    )


def _certificate_check(expected, v, shape):
    logdet = cond = None
    if v is not None:
        logdet = float(np.linalg.slogdet(v)[1])
        cond = float(np.linalg.cond(v))

    def check(out):
        nodeset, parsed, cert, cond_two = out
        _same_nodes(nodeset, expected, shape)
        _same_nodes(parsed, nodeset, shape)
        _require(cert["generic"] is True, f"{shape}: constructed nodes not certified generic")
        if v is None:
            return {}
        det_error = abs(cert["abs_det_log"] - logdet) / max(1.0, abs(logdet))
        _require(det_error <= LOGDET_RTOL, f"{shape}: abs_det_log off by {det_error:.3e}")
        cond_error = abs(cond_two - cond) / cond
        _require(cond_error <= COND_RTOL, f"{shape}: cond_two off by {cond_error:.3e}")
        return {"abs_det_log": det_error, "cond_two": cond_error}

    return check


WORKLOADS = {
    "large-solve": ("solve", prepare_large),
    "small-solve": ("solve", prepare_small),
    "certify": ("certify", prepare_certify),
}
