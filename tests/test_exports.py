"""Every name in `failprob.__all__` and in each failprob module's `__all__`
exists, so that deleting a name cannot leave a stale export behind; and the
settable fields of the estimator configurations, and the parameters of the
entry points, are the ones callers set."""

import importlib
import inspect
import pkgutil
from dataclasses import fields

import pytest

import failprob
from failprob.bench import run_estimator
from failprob.bss import BssConfig, run_bss
from failprob.estimators import SubsetSimConfig
from failprob.gp import fit_reml, reml_objective
from failprob.smc import RwmhState, rwmh_move
from failprob.sur import prune, select_next_point

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


def _parameters(fn) -> list[str]:
    return [p.name if p.default is p.empty else f"{p.name}={p.default!r}"
            for p in inspect.signature(fn).parameters.values()]


def test_entry_point_parameters():
    # one calling convention per entry point: an optional parameter that only
    # tests set keeps a second path alive, so a new one is a deliberate change
    assert _parameters(rwmh_move) == ["points", "log_target", "state", "rng", "current"]
    assert _parameters(select_next_point) == ["model", "points", "mean", "sd", "log_g_prev", "u_t"]
    assert _parameters(prune) == ["scores"]
    assert _parameters(reml_objective) == [
        "design_points", "design_values", "log_params", "neg_sq_diffs"]
    assert _parameters(fit_reml) == ["design_points", "design_values", "rng", "n_starts",
                                     "init=None"]
    assert _parameters(run_bss) == ["problem", "config", "seed", "model_factory=None"]
    assert _parameters(run_estimator) == ["problem", "method", "m", "seed", "p0=0.1"]
