"""Every name in `failprob.__all__` and in each failprob module's `__all__`
exists, so that deleting a name cannot leave a stale export behind; and the
settable fields of the estimator configurations are the ones callers set."""

import importlib
import pkgutil
from dataclasses import fields

import pytest

import failprob
from failprob.bss import BssConfig
from failprob.estimators import SubsetSimConfig
from failprob.smc import RwmhState

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


def test_settable_fields():
    # every other constant of the algorithm is fixed at module level; a new
    # field here is a deliberate change to what a caller can set
    assert [f.name for f in fields(BssConfig)] == [
        "m", "p0", "n_min", "n0", "max_stages", "max_total_evaluations"]
    assert [f.name for f in fields(SubsetSimConfig)] == ["m", "m0", "max_stages"]
    assert [f.name for f in fields(RwmhState)] == ["log_sigma", "sweeps"]
