"""Experiment harness tests: determinism, shared inputs, fits, CSV shape."""

from __future__ import annotations

import numpy as np
import pytest

import mvinterp.bench as bench
import mvinterp.solver as solver
from mvinterp.bench import (
    ACCURACY_FIELDS,
    CONDITIONING_FIELDS,
    RUNTIME_FIELDS,
    ExperimentConfig,
    conditioning_row,
    experiment_accuracy,
    experiment_conditioning,
    experiment_runtime,
    fit_power_law,
    format_csv,
    run_experiment,
)
from mvinterp.exceptions import SingularMatrixError
from mvinterp.monomials import count_total
from mvinterp.nodes import NodeSet
from mvinterp.vandermonde import COND_DESK_LIMIT, invert_ops, lu_factor_ops, lu_solve_ops


# -------------------------------------------------------------------- config


def test_config_defaults_are_valid():
    cfg = ExperimentConfig()
    assert cfg.reps == 10
    assert list(cfg.cells()) == [(2, 3), (3, 3), (4, 3), (5, 3)]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"experiment": "plotting"},
        {"dims": (5, 2)},
        {"dims": (0, 2)},
        {"degrees": (4, 1)},
        {"reps": 0},
        {"seed": -1},
        {"methods": ()},
        {"methods": ("pip-solver", "cholesky")},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


def test_config_mu_broadcast():
    assert np.array_equal(bench.mu_vector(0.5, 3), [0.5, 0.5, 0.5])
    assert np.array_equal(bench.mu_vector([0.5, -0.25], 2), [0.5, -0.25])
    with pytest.raises(ValueError):
        bench.mu_vector([0.5, -0.25], 3)


# ------------------------------------------------------------------ accuracy


def small_accuracy_config(**overrides):
    base = dict(experiment="accuracy", dims=(2, 3), degrees=(3, 3), reps=2, seed=5)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_accuracy_rows_schema_and_order():
    rows = experiment_accuracy(small_accuracy_config())
    assert len(rows) == 2 * 2 * 3  # cells x reps x methods
    assert all(tuple(row) == tuple(ACCURACY_FIELDS) for row in rows)
    keys = [(r["m"], r["n"], r["rep"], r["method"]) for r in rows]
    assert keys == sorted(keys)
    for row in rows:
        assert row["N"] == count_total(row["m"], row["n"])


def test_accuracy_errors_are_small_for_all_methods():
    # double precision recovery at desk scale, every method
    for row in experiment_accuracy(small_accuracy_config()):
        assert row["coeff_error_inf"] <= 1e-9


def test_accuracy_methods_share_values_within_a_repetition():
    rows = experiment_accuracy(small_accuracy_config())
    by_rep = {}
    for row in rows:
        by_rep.setdefault((row["m"], row["n"], row["rep"]), set()).add(
            row["values_checksum"]
        )
    for checksums in by_rep.values():
        assert len(checksums) == 1
    # different repetitions draw different polynomials
    assert len({next(iter(v)) for v in by_rep.values()}) > 1


def test_accuracy_is_deterministic():
    assert experiment_accuracy(small_accuracy_config()) == experiment_accuracy(
        small_accuracy_config()
    )


def test_accuracy_singular_baseline_rows_flag_infinity(monkeypatch):
    def refuse(*args, **kwargs):
        raise SingularMatrixError("forced for the error-path test")

    monkeypatch.setattr(bench, "lu_solve", refuse)
    rows = experiment_accuracy(small_accuracy_config(methods=("linsolve",)))
    assert rows
    assert all(row["coeff_error_inf"] == float("inf") for row in rows)


# ------------------------------------------------------------------- runtime


def test_runtime_rows_schema_and_ops():
    cfg = ExperimentConfig(experiment="runtime", dims=(2, 2), degrees=(3, 3), reps=2, seed=3)
    rows = experiment_runtime(cfg)
    assert all(tuple(row) == tuple(RUNTIME_FIELDS) for row in rows)
    assert len(rows) == 2 * 3
    total = count_total(2, 3)
    for row in rows:
        assert row["seconds"] > 0.0
        assert row["multiply_adds"] > 0
    by_method = {row["method"]: row["multiply_adds"] for row in rows if row["rep"] == 0}
    # dense baselines follow the analytic formulas exactly
    build = total * (total - 1)
    assert by_method["linsolve"] == build + lu_factor_ops(total) + lu_solve_ops(total)
    assert by_method["inversion"] == build + invert_ops(total) + total * total
    assert by_method["pip-solver"] < by_method["linsolve"]


def test_runtime_op_columns_are_deterministic():
    cfg = ExperimentConfig(experiment="runtime", dims=(2, 3), degrees=(2, 3), reps=2, seed=9)
    first = experiment_runtime(cfg)
    second = experiment_runtime(cfg)
    strip = lambda rows: [
        {k: v for k, v in row.items() if k != "seconds"} for row in rows
    ]
    assert strip(first) == strip(second)


def test_runtime_assembles_nodes_on_every_solver_row(monkeypatch):
    assembled = []

    def assemble(*args, **kwargs):
        assembled.append(args[:2])
        return bench.assemble_generic(*args, **kwargs)

    monkeypatch.setattr(solver, "assemble_generic", assemble)
    cfg = ExperimentConfig(experiment="runtime", dims=(2, 3), degrees=(2, 3), reps=2, seed=9)
    rows = [row for row in experiment_runtime(cfg) if row["method"] == "pip-solver"]
    assert len(rows) == 2 * 2 * 2
    assert sorted(assembled) == sorted((row["m"], row["n"]) for row in rows)


def test_runtime_singular_baseline_rows_are_blank(monkeypatch):
    def refuse(*args, **kwargs):
        raise SingularMatrixError("forced for the error-path test")

    monkeypatch.setattr(bench, "lu_solve", refuse)
    cfg = ExperimentConfig(experiment="runtime", dims=(2, 3), degrees=(3, 3), reps=2, seed=3)
    rows = experiment_runtime(cfg)
    assert len(rows) == 2 * 2 * 3
    for row in rows:
        if row["method"] == "linsolve":
            assert row["seconds"] is None and row["multiply_adds"] is None
        else:
            assert row["seconds"] > 0.0 and row["multiply_adds"] > 0
    lines = format_csv(RUNTIME_FIELDS, rows).splitlines()
    assert any(line.endswith(",linsolve,0,,") for line in lines)


# -------------------------------------------------------------- conditioning


def test_conditioning_rows_cover_grid():
    cfg = ExperimentConfig(experiment="conditioning", dims=(1, 2), degrees=(1, 2), seed=0)
    rows = experiment_conditioning(cfg)
    assert [(r["m"], r["n"]) for r in rows] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert all(tuple(row) == tuple(CONDITIONING_FIELDS) for row in rows)
    for row in rows:
        assert np.isfinite(row["cond_1"]) and row["cond_1"] >= 1.0
        assert row["bound_Nsq"] == row["N"] ** 2
        assert row["within_bound"] == (row["cond_1"] <= row["bound_Nsq"])
        assert row["cond_2_or_blank"] >= 1.0  # all sizes here allow the 2-norm


def test_conditioning_smallest_cell_uses_chebyshev_pair():
    cfg = ExperimentConfig(experiment="conditioning", dims=(1, 1), degrees=(1, 1))
    (row,) = experiment_conditioning(cfg)
    # nodes are +-cos(pi/4); the system is well conditioned
    assert 1.0 <= row["cond_1"] <= 16.0
    assert row["within_bound"] is True


def test_conditioning_row_flags_degenerate_sets():
    collinear = NodeSet(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), ["-"] * 3, 2, 1)
    row = conditioning_row(2, 1, collinear)
    assert row["cond_1"] == float("inf")
    assert row["within_bound"] is False


def test_conditioning_skips_cells_above_size_cap():
    cfg = ExperimentConfig(experiment="conditioning", dims=(14, 14), degrees=(4, 4))
    assert count_total(14, 4) > COND_DESK_LIMIT
    assert experiment_conditioning(cfg) == []


# ------------------------------------------------------------------ power law


def test_fit_power_law_exact_quadratic():
    fit = fit_power_law([(1.0, 1.0), (2.0, 4.0), (3.0, 9.0)])
    assert fit.p == pytest.approx(1.0, abs=1e-12)
    assert fit.q == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_power_law_exact_linear_with_prefactor():
    fit = fit_power_law([(1.0, 5.0), (2.0, 10.0), (4.0, 20.0)])
    assert fit.p == pytest.approx(5.0, rel=1e-12)
    assert fit.q == pytest.approx(1.0, abs=1e-12)


def test_fit_power_law_recovers_exponent_under_noise():
    rng = np.random.default_rng(20240817)
    xs = np.logspace(1, 4, 12)
    ys = 2.7624e-7 * xs**2.1427 * (1.0 + rng.uniform(-0.01, 0.01, xs.size))
    fit = fit_power_law(list(zip(xs, ys)))
    assert abs(fit.q - 2.1427) <= 0.05
    assert 0.0 <= fit.r_squared <= 1.0


def test_fit_power_law_constant_series():
    fit = fit_power_law([(1.0, 3.0), (2.0, 3.0), (4.0, 3.0)])
    assert fit.q == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


@pytest.mark.parametrize(
    "points",
    [
        [(1.0, 1.0), (2.0, 4.0)],
        [(1.0, 1.0), (2.0, 0.0), (3.0, 9.0)],
        [(1.0, 1.0), (-2.0, 4.0), (3.0, 9.0)],
        [(1.0, 1.0), (2.0, float("inf")), (3.0, 9.0)],
    ],
)
def test_fit_power_law_rejects_bad_input(points):
    with pytest.raises(ValueError):
        fit_power_law(points)


# ----------------------------------------------------------------------- CSV


def test_format_csv_value_rendering():
    text = format_csv(
        ("a", "b", "c", "d", "e"),
        [{"a": 1 / 3, "b": 7, "c": True, "d": None, "e": "x"}],
    )
    lines = text.splitlines()
    assert lines[0] == "a,b,c,d,e"
    assert lines[1] == "0.33333333333333331,7,true,,x"


def test_format_csv_renders_infinity():
    text = format_csv(("v",), [{"v": float("inf")}])
    assert text.splitlines()[1] == "inf"


def test_run_experiment_dispatch():
    fields, rows = run_experiment(
        ExperimentConfig(experiment="conditioning", dims=(2, 2), degrees=(2, 2))
    )
    assert fields == CONDITIONING_FIELDS
    assert len(rows) == 1
