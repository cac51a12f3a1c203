"""Every name a module exports through __all__ resolves to an attribute,
and every attribute the benchmark's tracer wraps exists."""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import mvinterp
from mvinterp import solver
from mvinterp.tree import build_tree

MODULES = [mvinterp] + [
    importlib.import_module(f"mvinterp.{info.name}")
    for info in pkgutil.iter_modules(mvinterp.__path__)
]

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_exported_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_tracing_targets_resolve():
    """A renamed or dropped import would break every traced benchmark run."""
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [
        (module, attr)
        for module, attr in tracing.TARGETS
        if getattr(importlib.import_module(module), attr, None) is None
    ]
    assert missing == []
    # the tree.build_tree hook counts the vertices of the tree it is handed
    tracer = tracing.Tracer()
    tracing.HOOKS["tree.build_tree"](tracer, (3, 3), {}, build_tree(3, 3))
    assert tracer.counters["tree.vertices"] == len(build_tree(3, 3).vertices) == 11


def test_solve_calls_every_traced_walk_step():
    """Each name the tracer wraps in the solver's modules is one the walk
    calls, so no span of a solve reads 0 (evaluate and leaf_slices are kept
    for the tracer only)."""
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    solver.clear_plans()
    try:
        with tracer.installed():
            for m, n in ((3, 3), (3, 3), (1, 4)):  # a first and a repeat call, then a line
                solver.solve(lambda p: float(p.sum() ** 2), m, n)
    finally:
        solver.clear_plans()
    recorded = {span[0] for span in tracer.spans}
    idle = [
        (module, attr)
        for (module, attr), name in tracing.TARGETS.items()
        if module in ("mvinterp.solver", "mvinterp.nodes", "mvinterp.univariate")
        and (module, attr) not in (("mvinterp.solver", "evaluate"), ("mvinterp.solver", "leaf_slices"))
        and name not in recorded
    ]
    assert idle == []
