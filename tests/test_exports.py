"""Every name a module exports through __all__ resolves to an attribute,
every attribute the benchmark's tracer wraps exists, no module imports a
name it never uses, and no module defines a private name that nothing
reads."""

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


def unread_private_names(sources: dict) -> list:
    """The module-level private names (functions, classes and assignments
    starting with one underscore) that no source reads, as "file: name".
    A name counts as read where it is loaded or taken as an attribute, but
    not inside the statement that defines it, as in a recursive call."""
    defined, reads = [], []
    for path, source in sources.items():
        for statement in ast.parse(source).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names = [statement.name]
            else:
                targets = getattr(statement, "targets", [getattr(statement, "target", None)])
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            private = [name for name in names if name.startswith("_") and not name.startswith("__")]
            defined += [(path, name, len(reads)) for name in private]
            reads.append({
                node.attr if isinstance(node, ast.Attribute) else node.id
                for node in ast.walk(statement)
                if isinstance(node, ast.Attribute) or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            })
    return [
        f"{path}: {name}"
        for path, name, at in defined
        if not any(name in read for i, read in enumerate(reads) if i != at)
    ]


def test_dead_helper_guard_sees_each_case():
    first = (
        "__all__ = []\n_LIMIT = 3\n_unused = 4\nx: int = _LIMIT\n_typed: int = 5\n"
        "def _walk(k):\n    return _walk(k - 1) if k else 0\n"
        "class _Kept:\n    pass\nclass _Dropped:\n    pass\n"
        "def public():\n    return _Kept()\n"
    )
    second = "from . import a\ndef _read_here():\n    pass\nprint(a._read_as_attr, _read_here)\n_read_as_attr = 1\n"
    assert unread_private_names({"a.py": first, "b.py": second}) == [
        "a.py: _unused", "a.py: _typed", "a.py: _walk", "a.py: _Dropped",
    ]


def test_package_defines_no_unread_private_name():
    assert unread_private_names({path.name: path.read_text() for path in SOURCES}) == []


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
