"""Every name a module exports through __all__ resolves to an attribute,
every attribute the benchmark's tracer wraps exists, and no module imports
a name it never uses."""

import ast
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
SOURCES = sorted(Path(mvinterp.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_exported_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def unused_imports(source: str) -> list:
    """The names source imports but never reads, does not list in __all__
    and does not mark with "# noqa: F401" (pyflakes' unused-import code)."""
    module, lines = ast.parse(source), source.splitlines()
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in module.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(module):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                marked = any("# noqa: F401" in lines[at - 1] for at in (node.lineno, alias.lineno))
                if name not in used and not marked:
                    unused.append(f"line {alias.lineno}: {name}")
    return unused


def test_unused_import_guard_sees_each_case():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys\nfrom itertools import islice, repeat  # noqa: F401\n"
        "from math import (\n    comb,\n    pi,\n)\n"
        "__all__ = ['pi']\n"
        "def f():\n    from json import dumps\n    return os.path.sep\n"
    )
    assert unused_imports(source) == ["line 3: sys", "line 6: comb", "line 11: dumps"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_modules_import_no_unused_name(path):
    assert unused_imports(path.read_text()) == []


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
