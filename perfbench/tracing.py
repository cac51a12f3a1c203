"""Span tracing installed from outside the package.

Tracer.installed() replaces module attributes of mvinterp with wrappers
that record one span per call: (name, start, end, parent span, operation
id).  Modules import their collaborators by name (solver does
``from .polynomial import evaluate``), so a call is traced where it is
looked up: ``mvinterp.solver.evaluate`` is the solver's call into the
polynomial layer.  The originals are put back when the block ends, and
nothing under src/ changes.

Spans stay in memory; write_spans() stores them when the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

from mvinterp import vandermonde

# (module, attribute) -> span name.  The span name is the layer and
# function called, whichever module the call comes from.
TARGETS = {
    ("mvinterp.solver", "solve"): "solver.solve",
    ("mvinterp.solver", "corrected_value"): "solver.corrected_value",
    ("mvinterp.solver", "assemble_generic"): "nodes.assemble_generic",
    ("mvinterp.solver", "leaf_slices"): "nodes.leaf_slices",
    ("mvinterp.solver", "vertex_base"): "tree.vertex_base",
    ("mvinterp.solver", "evaluate"): "polynomial.evaluate",
    ("mvinterp.solver", "mul_linear"): "polynomial.mul_linear",
    ("mvinterp.solver", "solve_on_line"): "univariate.solve_on_line",
    ("mvinterp.solver", "solve_linear"): "linear.solve_linear",
    ("mvinterp.nodes", "assemble_generic"): "nodes.assemble_generic",
    ("mvinterp.nodes", "build_tree"): "tree.build_tree",
    ("mvinterp.nodes", "assign_hyperplanes"): "tree.assign_hyperplanes",
    ("mvinterp.nodes", "vertex_base"): "tree.vertex_base",
    ("mvinterp.nodes", "leaf_nodes"): "nodes.leaf_nodes",
    ("mvinterp.univariate", "solve_univariate"): "univariate.solve_univariate",
    ("mvinterp.univariate", "embed_univariate"): "polynomial.embed_univariate",
    ("mvinterp.vandermonde", "build_vandermonde"): "vandermonde.build_vandermonde",
    ("mvinterp.vandermonde", "lu_solve"): "vandermonde.lu_solve",
    ("mvinterp.vandermonde", "genericity_check"): "vandermonde.genericity_check",
    ("mvinterp.vandermonde", "cond_two"): "vandermonde.cond_two",
    ("mvinterp.vandermonde", "build_tree"): "tree.build_tree",
    ("mvinterp.vandermonde", "leaf_slices"): "nodes.leaf_slices",
    ("mvinterp.fileio", "format_nodes"): "fileio.format_nodes",
    ("mvinterp.fileio", "parse_nodes"): "fileio.parse_nodes",
}


class Tracer:
    """In-memory span recorder with counters read off call results.

    A hook (see HOOKS) runs after its span closes, so its cost lands in
    the caller's self time.  seen holds the node-set configurations
    assembled so far; the caller resets it at the start of each round.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.seen = set()
        self.op_id = -1
        self._stack = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op_id)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def operation(self, op_id, name, fn, *args):
        """Run fn(*args) as the root span of operation op_id; returns (result, seconds)."""
        self.op_id = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, op_id)
        return result, end - start

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for (module_name, attr), name in TARGETS.items():
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _solve(tracer, args, kwargs, result):
    report = result[2]
    tracer.counters["solver.multiply_adds"] += report["multiply_adds"]
    tracer.counters["solver.peak_reals_stored"] = max(
        tracer.counters["solver.peak_reals_stored"], report["peak_reals_stored"]
    )


def _assemble(tracer, args, kwargs, result):
    def raw(value):
        return None if value is None else np.asarray(value, dtype=float).tobytes()

    key = (
        args[:2],
        raw(kwargs.get("frame")),
        str(kwargs.get("lam")),
        kwargs.get("kappa"),
        raw(kwargs.get("mu")),
    )
    tracer.counters["nodes.assemble_calls"] += 1
    if key in tracer.seen:
        tracer.counters["nodes.assemble_repeats"] += 1
    tracer.seen.add(key)


def _build_tree(tracer, args, kwargs, result):
    tracer.counters["tree.vertices"] += len(result.vertices)


def _build_vandermonde(tracer, args, kwargs, result):
    tracer.counters["vandermonde.matrix_bytes"] += 8 * result.size


def _lu_solve(tracer, args, kwargs, result):
    size = result.shape[0]
    tracer.counters["vandermonde.lu_ops"] += vandermonde.lu_factor_ops(
        size
    ) + vandermonde.lu_solve_ops(size)


def _format_nodes(tracer, args, kwargs, result):
    tracer.counters["fileio.node_file_bytes"] += len(result)


# span name -> fn(tracer, args, kwargs, result)
HOOKS = {
    "solver.solve": _solve,
    "nodes.assemble_generic": _assemble,
    "tree.build_tree": _build_tree,
    "vandermonde.build_vandermonde": _build_vandermonde,
    "vandermonde.lu_solve": _lu_solve,
    "fileio.format_nodes": _format_nodes,
}


def aggregate(spans):
    """Per span name: calls, total seconds and self seconds; per operation: residual.

    Self time is a span's duration minus the durations of its direct
    children.  Calls on one thread nest, so children never overlap and the
    self times of an operation's spans sum to its root span's duration;
    the returned residual is the worst absolute gap between the two.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name = defaultdict(lambda: [0, 0.0, 0.0])
    self_by_op = defaultdict(float)
    root_by_op = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        duration = end - start
        entry = by_name[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_time[i]
        self_by_op[op] += duration - child_time[i]
        if parent < 0:
            root_by_op[op] = duration
    residual = max(
        (abs(self_by_op[op] - root) for op, root in root_by_op.items()), default=0.0
    )
    table = {
        name: {"calls": calls, "total_s": total, "self_s": own}
        for name, (calls, total, own) in by_name.items()
    }
    return table, residual


def write_spans(spans, path) -> None:
    """Store spans as gzip CSV: name,start,end,parent,op (seconds since the first span)."""
    origin = spans[0][1] if spans else 0.0
    with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as handle:
        handle.write("name,start,end,parent,op\n")
        for name, start, end, parent, op in spans:
            handle.write(
                f"{name},{start - origin:.9f},{end - origin:.9f},{parent},{op}\n"
            )
