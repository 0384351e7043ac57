"""Every name in `failprob.__all__` and in each failprob module's `__all__`
exists, so that deleting a name cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import failprob

# __main__ is left out: importing it runs the command line
MODULES = [name for name in ["failprob"] + [f"failprob.{info.name}" for info in
                                           pkgutil.iter_modules(failprob.__path__)
                                           if info.name != "__main__"]
           if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert len(set(module.__all__)) == len(module.__all__), "duplicate names in __all__"
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
