"""Runs one workload: set-up, timed rounds, memory pass, metrics.

Imported by run.py once the package's src/ is on the path.  Times are
reported corrected for machine speed (see speed.py); the summary file
also keeps the raw wall times.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import json
import os
import platform
import statistics
import sys
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import speed
import tracing
import workloads
from mvinterp import monomials

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
PROBE_EVERY_S = 0.1


@dataclass
class Record:
    op: workloads.Op
    seconds: float  # wall time
    ok: bool
    traced: bool
    figure: dict  # what the check measured, e.g. {"coeff_error": 3e-13}
    scale: float = 1.0  # machine-speed correction, see speed.py

    @property
    def corrected(self) -> float:
        return self.seconds * self.scale


class Runner:
    """Runs one prepared workload and keeps one record per operation.

    After an operation, once PROBE_EVERY_S has passed since the last
    probe, the machine speed is probed again; the operations between two
    probes take the mean of the two scales.
    """

    def __init__(self, prepared, tracer=None):
        self.prepared = prepared
        self.tracer = tracer
        self.records = []
        self.build_order_calls = 0
        self.build_order_hits = 0
        self._unscaled = []
        self._last_scale = speed.scale()
        self._last_probe = perf_counter()

    def round(self, traced: bool) -> None:
        gc.collect()
        if not traced:
            for op in self.prepared.ops:
                self._run(op, None)
            self._probe()
            return
        before = monomials.build_order.cache_info()
        with self.tracer.installed():
            self.tracer.seen = set()  # repeats are counted within a round
            for op in self.prepared.ops:
                self._run(op, self.tracer)
        self._probe()
        after = monomials.build_order.cache_info()
        self.build_order_hits += after.hits - before.hits
        self.build_order_calls += (after.hits + after.misses) - (before.hits + before.misses)

    def _run(self, op, tracer) -> None:
        op_id = len(self.records)
        try:
            if tracer is None:
                start = perf_counter()
                out = op.call(_identity)
                seconds = perf_counter() - start
            else:
                user = lambda f: tracer.wrap("user.f", f)
                out, seconds = tracer.operation(op_id, "bench." + op.kind, op.call, user)
            figure = op.check(out)
            ok = True
        except Exception as failure:  # a failed operation is counted, not fatal
            sys.stderr.write(f"operation {op_id} {op.kind} {op.shape} failed: {failure!r}\n")
            if not isinstance(failure, workloads.CheckFailed):
                traceback.print_exc(file=sys.stderr)
            seconds, figure, ok = float("nan"), {}, False
        self.records.append(Record(op, seconds, ok, tracer is not None, figure))
        self._unscaled.append(self.records[-1])
        if perf_counter() - self._last_probe >= PROBE_EVERY_S:
            self._probe()

    def _probe(self) -> None:
        if self._unscaled:
            now = speed.scale()
            for record in self._unscaled:
                record.scale = (self._last_scale + now) / 2
            self._unscaled = []
            self._last_scale = now
        self._last_probe = perf_counter()


def _identity(f):
    return f


def peak_kib(op) -> float:
    """tracemalloc peak, in KiB, of one call of op (untimed); NaN if it raises."""
    gc.collect()
    tracemalloc.start()
    try:
        op.call(_identity)
        _, peak = tracemalloc.get_traced_memory()
    except Exception:  # the same operation fails, and is counted, in the rounds
        peak = float("nan")
    finally:
        tracemalloc.stop()
    return peak / 1024.0


def end_to_end(records, ops, primary, setup_s, peak) -> dict:
    """End-to-end metrics over the workload's primary operations.

    Every round repeats the same operations, so each operation's typical
    time is the median of its corrected times; throughput divides by the
    sum of those medians, so a stall in one round does not move it.
    op_p50_s is the median of the typical times.  Where a round mixes
    sizes, the median of all samples would jump between the two size
    groups that meet in the middle; the median of the typical times stays
    on the same operations from run to run.  If any operation failed,
    the times read NaN: a failure that skipped work must not read as a
    speed-up.
    """
    repeats = {}
    for i, r in enumerate(records):
        if r.op.kind == primary:
            repeats.setdefault(i % len(ops), []).append(r.corrected)
    if not all(r.ok for r in records):
        repeats = {0: [float("nan")]}
    typical = {j: statistics.median(times) for j, times in repeats.items()}
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(typical) / sum(typical.values()), "1/s"),
        "op_p50_s": (statistics.median(typical.values()), "s"),
        "peak_kib": (peak, "KiB"),
    }


def per_layer(records, table, counters, rounds, runner, lu_peak) -> dict:
    """Per-layer metrics from the traced rounds, each per round unless a
    ratio or a peak.  Span seconds are scaled by the traced rounds' median
    machine-speed correction."""
    traced = [r for r in records if r.ok and r.traced]
    untraced = [r for r in records if r.ok and not r.traced]
    scale = statistics.median(r.scale for r in traced) if traced else 1.0

    def total(name):
        return table.get(name, {}).get("total_s", 0.0) * scale / rounds

    def own(name):
        return table.get(name, {}).get("self_s", 0.0) * scale / rounds

    def calls(name):
        return table.get(name, {}).get("calls", 0) / rounds

    def ratio(part, whole):
        return part / whole if whole else 0.0

    lu = [r for r in untraced if r.op.kind == "baseline"]
    s, c, per = "s/round", "calls/round", "count/round"
    return {
        "tree.build_tree_s": (total("tree.build_tree"), s),
        "tree.build_tree_calls": (calls("tree.build_tree"), c),
        "tree.vertices_built": (counters["tree.vertices"] / rounds, per),
        "tree.assign_hyperplanes_s": (total("tree.assign_hyperplanes"), s),
        "tree.assign_hyperplanes_calls": (calls("tree.assign_hyperplanes"), c),
        "tree.vertex_base_s": (total("tree.vertex_base"), s),
        "tree.vertex_base_calls": (calls("tree.vertex_base"), c),
        "nodes.assemble_generic_self_s": (own("nodes.assemble_generic"), s),
        "nodes.assemble_generic_calls": (calls("nodes.assemble_generic"), c),
        "nodes.assemble_repeat_ratio": (
            ratio(counters["nodes.assemble_repeats"], counters["nodes.assemble_calls"]), "ratio"),
        "nodes.leaf_nodes_s": (total("nodes.leaf_nodes"), s),
        "nodes.leaf_slices_s": (total("nodes.leaf_slices"), s),
        "polynomial.evaluate_s": (total("polynomial.evaluate"), s),
        "polynomial.evaluate_calls": (calls("polynomial.evaluate"), c),
        "polynomial.mul_linear_s": (total("polynomial.mul_linear"), s),
        "polynomial.mul_linear_calls": (calls("polynomial.mul_linear"), c),
        "polynomial.embed_univariate_s": (total("polynomial.embed_univariate"), s),
        "solver.solve_self_s": (own("solver.solve"), s),
        "solver.corrected_value_self_s": (own("solver.corrected_value"), s),
        "solver.corrected_value_calls": (calls("solver.corrected_value"), c),
        "solver.multiply_adds": (counters["solver.multiply_adds"] / rounds, per),
        "solver.peak_reals_stored": (counters["solver.peak_reals_stored"], "count"),
        "univariate.solve_on_line_self_s": (own("univariate.solve_on_line"), s),
        "univariate.solve_on_line_calls": (calls("univariate.solve_on_line"), c),
        "univariate.solve_univariate_s": (total("univariate.solve_univariate"), s),
        "linear.solve_linear_self_s": (own("linear.solve_linear"), s),
        "linear.solve_linear_calls": (calls("linear.solve_linear"), c),
        "user.f_s": (total("user.f"), s),
        "vandermonde.build_vandermonde_s": (total("vandermonde.build_vandermonde"), s),
        "vandermonde.lu_solve_s": (total("vandermonde.lu_solve"), s),
        "vandermonde.lu_ops": (counters["vandermonde.lu_ops"] / rounds, per),
        "vandermonde.matrix_bytes_computed": (counters["vandermonde.matrix_bytes"] / rounds, "B/round"),
        "vandermonde.lu_coeffs_per_s": (
            ratio(sum(r.op.size for r in lu), sum(r.corrected for r in lu)), "coeff/s"),
        "vandermonde.lu_peak_kib": (lu_peak, "KiB"),
        "vandermonde.genericity_check_s": (total("vandermonde.genericity_check"), s),
        "vandermonde.genericity_check_calls": (calls("vandermonde.genericity_check"), c),
        "vandermonde.cond_two_s": (total("vandermonde.cond_two"), s),
        "fileio.format_nodes_s": (total("fileio.format_nodes"), s),
        "fileio.parse_nodes_s": (total("fileio.parse_nodes"), s),
        "fileio.node_file_bytes": (counters["fileio.node_file_bytes"] / rounds, "B/round"),
        "monomials.build_order_calls": (runner.build_order_calls / rounds, c),
        "monomials.build_order_hit_ratio": (
            ratio(runner.build_order_hits, runner.build_order_calls), "ratio"),
        "trace.overhead_s": (
            (sum(r.corrected for r in traced) - sum(r.corrected for r in untraced)) / rounds, s),
    }


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS would use, read from the libraries."""
    found = {}
    for module in (numpy, scipy):
        libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for lib in sorted(glob.glob(str(libs / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[Path(lib).name] = getter()
                    break
    return found or {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def set_up(workload: str, seed: int, import_s: float):
    """Input generation and warm-up, SETUP_REPEATS times, after the import.

    Each repeat prepares the workload with the monomial-order cache
    emptied, and is corrected by the mean of the speed probes on either
    side of it.  The import is timed once, in run.py, and corrected by the
    median of those probes, since one probe alone is too noisy for it.
    setup_s is the corrected import time plus the median corrected repeat.
    Returns the last preparation, setup_s and the raw repeats.
    """
    _, prepare = workloads.WORKLOADS[workload]
    probes = [speed.scale()]
    repeats = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        monomials.build_order.cache_clear()
        begin = perf_counter()
        prepared = prepare(seed)
        for op in prepared.warmup:
            try:
                op.call(_identity)
            except Exception:  # the same operation fails, and is counted, in the rounds
                pass
        seconds = perf_counter() - begin
        probes.append(speed.scale())
        repeats.append((seconds, (probes[-2] + probes[-1]) / 2))
    setup_s = import_s * statistics.median(probes) + statistics.median(
        seconds * k for seconds, k in repeats)
    return prepared, setup_s, repeats


def run(args, import_s: float) -> int:
    primary, _ = workloads.WORKLOADS[args.workload]
    prepared, setup_s, setups = set_up(args.workload, args.seed, import_s)

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(prepared, tracer)
    rounds = 0
    begin = perf_counter()
    while True:
        runner.round(traced=bool(args.trace) and rounds % 2 == 1)
        rounds += 1
        if perf_counter() - begin >= args.seconds and (not args.trace or rounds % 2 == 0):
            break

    records = runner.records
    failed = sum(1 for r in records if not r.ok)
    correct = failed == 0
    if args.trace:
        table, residual = tracing.aggregate(tracer.spans)
        lu_peak = peak_kib(prepared.baseline_peak) if prepared.baseline_peak else 0.0
        metrics = per_layer(records, table, tracer.counters, rounds // 2, runner, lu_peak)
        metrics["trace.self_sum_residual_s"] = (residual, "s")
        correct = correct and residual <= 1e-6
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(tracer.spans, OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    else:
        metrics = end_to_end(records, prepared.ops, primary, setup_s, peak_kib(prepared.peak))
    correct = correct and all(numpy.isfinite(value) for value, _ in metrics.values())

    env = environment()
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "env": env,
        "import_s": import_s,
        "setup_runs": [
            {"prepare_s": prep, "scale": k} for prep, k in setups
        ],
        "worst_figure": _worst_figures(records),
        "op_seconds": _op_seconds(records, prepared.ops),
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _op_seconds(records, ops) -> dict:
    """Per operation of a round: its raw wall times and scales, in round order."""
    out = {}
    for i, r in enumerate(records):
        op = ops[i % len(ops)]
        key = f"{i % len(ops)} {op.kind} {op.form} {op.shape[0]},{op.shape[1]}"
        entry = out.setdefault(key, {"seconds": [], "scale": []})
        entry["seconds"].append(r.seconds)
        entry["scale"].append(r.scale)
    return out


def _worst_figures(records) -> dict:
    """Per kind, form and shape, the worst error a check measured."""
    worst = {}
    for r in records:
        if not r.ok:
            continue
        for name, value in r.figure.items():
            key = f"{r.op.kind} {r.op.form} {r.op.shape[0]},{r.op.shape[1]} {name}"
            worst[key] = max(worst.get(key, 0.0), value)
    return worst
