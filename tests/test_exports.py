"""Every name a module exports through __all__ resolves to an attribute."""

import importlib
import pkgutil

import pytest

import mvinterp

MODULES = [mvinterp] + [
    importlib.import_module(f"mvinterp.{info.name}")
    for info in pkgutil.iter_modules(mvinterp.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_exported_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
