"""Tests of the benchmark's own parts: reference maths, tracing, spec.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402


def test_table_matches_a_hand_worked_case():
    # m=2, n=2: 1, x, y, x^2, xy, y^2
    table = reference.MonomialTable(2, 2)
    assert table.exponents().tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    # p = 1 + 2x + 3y + 4x^2 + 5xy + 6y^2 at (2, 3): 1+4+9+16+30+54
    coeffs = [1, 2, 3, 4, 5, 6]
    assert table.evaluate(np.array([[2.0, 3.0]]), coeffs).tolist() == [114.0]
    assert table.point_function(coeffs)(np.array([2.0, 3.0])) == 114.0
    # degree-3 block in three variables, first variable dominant
    block = reference.MonomialTable(3, 3).exponents()[10:]
    assert block[:4].tolist() == [[3, 0, 0], [2, 1, 0], [2, 0, 1], [1, 2, 0]]
    assert block[-1].tolist() == [0, 0, 3]


def test_evaluator_chunks_agree_with_direct_powers(monkeypatch):
    rng = np.random.default_rng(0)
    table = reference.MonomialTable(4, 3)
    points = rng.uniform(-2, 2, (37, 4))
    coeffs = rng.uniform(-1, 1, len(table))
    direct = np.prod(points[:, None, :] ** table.exponents()[None], axis=2) @ coeffs
    monkeypatch.setattr(reference, "CHUNK_ELEMENTS", 100)  # several rows per chunk
    np.testing.assert_allclose(table.evaluate(points, coeffs), direct, rtol=1e-13)
    assert table.residual(points, coeffs, direct) < 1e-14


def test_table_follows_the_documented_package_order():
    from mvinterp.monomials import build_order

    for m, n in [(1, 4), (2, 5), (3, 3), (5, 2), (4, 0)]:
        table = reference.MonomialTable(m, n)
        assert [tuple(row) for row in table.exponents()] == list(build_order(m, n).table)


def test_circle_control_is_on_a_conic():
    points = reference.circle_points(6)
    np.testing.assert_allclose((points**2).sum(axis=1), 1.0)


def test_self_times_sum_to_the_operation_duration():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: sum(range(x)))
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    for op_id in range(3):
        tracer.operation(op_id, "root", outer, 10_000)
    table, residual = tracing.aggregate(tracer.spans)
    assert table["inner"]["calls"] == 6
    assert table["outer"]["calls"] == 3
    assert residual < 1e-12
    root = sum(end - start for name, start, end, _, _ in tracer.spans if name == "root")
    own = sum(entry["self_s"] for entry in table.values())
    assert own == pytest.approx(root, abs=1e-12)


def test_wrappers_are_removed_after_the_block():
    from mvinterp import solver

    original = solver.evaluate
    with tracing.Tracer().installed():
        assert solver.evaluate is not original
    assert solver.evaluate is original


def test_spec_names_every_metric_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    records = []
    layer = harness.per_layer(records, {}, tracing.Tracer().counters, 1, harness.Runner(None), 0.0)
    layer["trace.self_sum_residual_s"] = (0.0, "s")
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in layer.items()
    ]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_s", "peak_kib"
    }
    import run
    import workloads

    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_failed_operations_are_counted_not_fatal():
    import workloads

    def broken(user):
        raise ZeroDivisionError("program fault")

    def wrong(out):
        raise workloads.CheckFailed("disagrees with the reference")

    ops = [
        workloads.Op("solve", "values", (2, 2), broken, lambda out: {}),
        workloads.Op("solve", "values", (2, 2), lambda user: 1.0, wrong),
        workloads.Op("solve", "values", (2, 3), lambda user: 1.0, lambda out: {"error": 0.0}),
    ]
    runner = harness.Runner(workloads.Prepared(ops=ops, warmup=[], peak=ops[2]))
    runner.round(traced=False)
    runner.round(traced=False)
    assert [r.ok for r in runner.records] == [False, False, True] * 2
    # a failure must not read as a speed-up: with any failed operation the times are NaN
    metrics = harness.end_to_end(runner.records, ops, "solve", 1.0, 1.0)
    assert np.isnan(metrics["ops_per_s"][0]) and np.isnan(metrics["op_p50_s"][0])
    all_ok = harness.end_to_end(runner.records[2::3], ops[2:], "solve", 1.0, 1.0)
    assert all_ok["ops_per_s"][0] * all_ok["op_p50_s"][0] == pytest.approx(1.0)
