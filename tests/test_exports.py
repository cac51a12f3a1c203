"""Every name a module exports through __all__ resolves to an attribute,
and every attribute the benchmark's tracer wraps exists."""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import mvinterp
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
