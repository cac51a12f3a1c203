"""Experiment harness: accuracy, runtime, and conditioning studies.

Three experiment kinds over a rectangular (dimension, degree) grid:

* accuracy: draw random coefficient vectors, evaluate them on one shared
  node set per cell, and record each method's worst coefficient error.
  Every method in a repetition consumes the identical value vector; its
  checksum is part of the CSV row.
* runtime: draw random target values and time each method end to end,
  node generation included.  Op counts ride along so scaling fits do not
  depend on the clock; a method that refuses a singular system gets blank
  cells.
* conditioning: condition numbers of the interpolation matrix on the
  generated nodes, with the N^2 bound check recorded per cell.

All randomness flows from SeedSequence((seed, m, n, rep)), so a config
fully determines every row.  Rows come out sorted; the only
nondeterministic column is the clearly marked "seconds".
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import SingularMatrixError
from .monomials import count_total
from .nodes import assemble_generic
from .polynomial import MultiPoly, evaluate_rows
from .solver import SolveConfig, clear_plans, solve
from .vandermonde import (
    COND_DESK_LIMIT,
    build_vandermonde,
    cond_two,
    genericity_check,
    invert,
    invert_ops,
    lu_factor_ops,
    lu_solve,
    lu_solve_ops,
)

__all__ = [
    "ExperimentConfig",
    "FitResult",
    "METHODS",
    "experiment_accuracy",
    "experiment_runtime",
    "experiment_conditioning",
    "conditioning_row",
    "fit_power_law",
    "run_experiment",
    "format_csv",
    "mu_vector",
]

METHODS = ("pip-solver", "linsolve", "inversion")
EXPERIMENTS = ("accuracy", "runtime", "conditioning")

ACCURACY_FIELDS = ("m", "n", "N", "method", "rep", "coeff_error_inf", "values_checksum")
RUNTIME_FIELDS = ("m", "n", "N", "method", "rep", "seconds", "multiply_adds")
CONDITIONING_FIELDS = ("m", "n", "N", "cond_1", "cond_2_or_blank", "bound_Nsq", "within_bound")

COND_TWO_LIMIT = 300


@dataclass
class ExperimentConfig:
    """One experiment run: kind, grid, repetitions, seed, methods, geometry."""

    experiment: str = "accuracy"
    dims: tuple = (2, 5)
    degrees: tuple = (3, 3)
    reps: int = 10
    seed: int = 0
    methods: tuple = METHODS
    lam: Fraction = Fraction(2)
    kappa: float = 1.0
    mu: object = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        self.dims = (int(self.dims[0]), int(self.dims[1]))
        self.degrees = (int(self.degrees[0]), int(self.degrees[1]))
        if self.dims[0] > self.dims[1] or self.dims[0] < 1:
            raise ValueError(f"empty or invalid dimension range {self.dims}")
        if self.degrees[0] > self.degrees[1] or self.degrees[0] < 0:
            raise ValueError(f"empty or invalid degree range {self.degrees}")
        if self.reps < 1:
            raise ValueError("repetitions must be >= 1")
        if int(self.seed) < 0:
            raise ValueError("seed must be a non-negative integer")
        bad = set(self.methods) - set(METHODS)
        if not self.methods or bad:
            raise ValueError(f"methods must be a non-empty subset of {METHODS}, got {self.methods}")

    def cells(self):
        for m in range(self.dims[0], self.dims[1] + 1):
            for n in range(self.degrees[0], self.degrees[1] + 1):
                yield m, n

    def solve_config(self, m: int) -> SolveConfig:
        return SolveConfig(lam=self.lam, kappa=self.kappa, mu=mu_vector(self.mu, m))


def mu_vector(mu, m: int):
    """The m-vector shift for a given mu: None, one real broadcast, or m reals."""
    if mu is None:
        return None
    values = np.atleast_1d(np.asarray(mu, dtype=float))
    if values.size == 1:
        return np.full(m, values[0])
    if values.size != m:
        raise ValueError(f"mu has {values.size} entries, expected 1 or m = {m}")
    return values


@dataclass
class FitResult:
    """Power-law model y = p * x^q fitted in log-log space."""

    p: float
    q: float
    r_squared: float


def _rng(cfg: ExperimentConfig, m: int, n: int, rep: int):
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, m, n, rep)))


def _assemble(cfg: ExperimentConfig, m: int, n: int):
    return assemble_generic(m, n, lam=cfg.lam, kappa=cfg.kappa, mu=mu_vector(cfg.mu, m))


def _checksum(values: np.ndarray) -> str:
    return f"{zlib.crc32(values.tobytes()):08x}"


def experiment_accuracy(cfg: ExperimentConfig) -> list:
    """Coefficient recovery error per method on shared nodes and values."""
    rows = []
    for m, n in cfg.cells():
        total = count_total(m, n)
        nodes, _, _ = _assemble(cfg, m, n)
        v = v_inv = None
        if {"linsolve", "inversion"} & set(cfg.methods):
            v = build_vandermonde(nodes.points, m, n)
        if "inversion" in cfg.methods:
            try:
                v_inv = invert(v)
            except SingularMatrixError:
                pass
        for rep in range(cfg.reps):
            coeffs = _rng(cfg, m, n, rep).uniform(-1.0, 1.0, total)
            truth = MultiPoly(m, n, coeffs)
            values = evaluate_rows(truth, nodes.points)
            checksum = _checksum(values)
            for method in cfg.methods:
                try:
                    if method == "pip-solver":
                        recovered, _, _ = solve(values, m, n, config=cfg.solve_config(m))
                        recovered = recovered.coeffs
                    elif method == "linsolve":
                        recovered = lu_solve(v, values)
                    else:
                        if v_inv is None:
                            raise SingularMatrixError("inverse unavailable")
                        recovered = v_inv @ values
                    error = float(np.max(np.abs(recovered - coeffs)))
                except SingularMatrixError:
                    error = float("inf")
                rows.append(
                    {
                        "m": m,
                        "n": n,
                        "N": total,
                        "method": method,
                        "rep": rep,
                        "coeff_error_inf": error,
                        "values_checksum": checksum,
                    }
                )
    rows.sort(key=lambda r: (r["m"], r["n"], r["rep"], r["method"]))
    return rows


def experiment_runtime(cfg: ExperimentConfig) -> list:
    """Wall time (node generation included) and op counts per method.

    A method that refuses a singular system keeps its row, with seconds
    and multiply_adds left blank.
    """
    rows = []
    for m, n in cfg.cells():
        total = count_total(m, n)
        for rep in range(cfg.reps):
            target = _rng(cfg, m, n, rep).uniform(-1.0, 1.0, total)
            for method in cfg.methods:
                if method == "pip-solver":
                    clear_plans()  # so that the time includes node generation
                start = time.perf_counter()
                try:
                    if method == "pip-solver":
                        multiply_adds = solve(target, m, n, config=cfg.solve_config(m))[2]["multiply_adds"]
                    else:
                        nodes, _, _ = _assemble(cfg, m, n)
                        v = build_vandermonde(nodes.points, m, n)
                        multiply_adds = total * (total - 1)  # the build
                        if method == "linsolve":
                            lu_solve(v, target)
                            multiply_adds += lu_factor_ops(total) + lu_solve_ops(total)
                        else:
                            invert(v) @ target
                            multiply_adds += invert_ops(total) + total * total
                except SingularMatrixError:
                    seconds = multiply_adds = None
                else:
                    seconds = time.perf_counter() - start
                rows.append(
                    {
                        "m": m,
                        "n": n,
                        "N": total,
                        "method": method,
                        "rep": rep,
                        "seconds": seconds,
                        "multiply_adds": multiply_adds,
                    }
                )
    rows.sort(key=lambda r: (r["m"], r["n"], r["rep"], r["method"]))
    return rows


def conditioning_row(m: int, n: int, nodes) -> dict:
    """Condition numbers of the interpolation system on one node set.

    cond_1 comes from the regularity certificate (best legally rescaled
    dense system, finite whenever the set is generic); cond_2 is the 2-norm
    value of the raw matrix, computed only up to N = COND_TWO_LIMIT.
    """
    total = count_total(m, n)
    certificate = genericity_check(nodes, m, n)
    cond_1 = float(certificate["cond_1"])
    if not certificate["generic"]:
        cond_1 = float("inf")
    if total <= COND_TWO_LIMIT:
        cond_2 = cond_two(build_vandermonde(nodes, m, n))
    else:
        cond_2 = None
    bound = total * total
    return {
        "m": m,
        "n": n,
        "N": total,
        "cond_1": cond_1,
        "cond_2_or_blank": cond_2,
        "bound_Nsq": bound,
        "within_bound": bool(cond_1 <= bound),
    }


def experiment_conditioning(cfg: ExperimentConfig) -> list:
    rows = []
    for m, n in cfg.cells():
        if count_total(m, n) > COND_DESK_LIMIT:
            continue
        nodes, _, _ = _assemble(cfg, m, n)
        rows.append(conditioning_row(m, n, nodes))
    rows.sort(key=lambda r: (r["m"], r["n"]))
    return rows


def run_experiment(cfg: ExperimentConfig):
    """Dispatch on cfg.experiment; returns (fieldnames, rows)."""
    if cfg.experiment == "accuracy":
        return ACCURACY_FIELDS, experiment_accuracy(cfg)
    if cfg.experiment == "runtime":
        return RUNTIME_FIELDS, experiment_runtime(cfg)
    return CONDITIONING_FIELDS, experiment_conditioning(cfg)


def fit_power_law(points) -> FitResult:
    """Least squares for y = p * x^q on (log x, log y).

    Requires at least 3 strictly positive (x, y) pairs; r_squared is
    computed from the log-space residuals.
    """
    data = np.asarray(list(points), dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 3:
        raise ValueError(f"need at least 3 (x, y) pairs, got shape {data.shape}")
    if np.any(data <= 0.0) or not np.all(np.isfinite(data)):
        raise ValueError("power-law fit requires finite, strictly positive data")
    lx = np.log(data[:, 0])
    ly = np.log(data[:, 1])
    design = np.vstack([np.ones_like(lx), lx]).T
    (intercept, slope), *_ = np.linalg.lstsq(design, ly, rcond=None)
    residuals = ly - design @ np.array([intercept, slope])
    ss_res = float(residuals @ residuals)
    centered = ly - ly.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return FitResult(p=float(np.exp(intercept)), q=float(slope), r_squared=r_squared)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def format_csv(fieldnames, rows) -> str:
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(_format_value(row[name]) for name in fieldnames))
    return "\n".join(lines) + "\n"
