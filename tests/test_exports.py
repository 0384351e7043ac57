"""Every name in `failprob.__all__` and in each failprob module's `__all__`
exists, so that deleting a name cannot leave a stale export behind; and the
settable fields of the estimator configurations, and the parameters of the
entry points, are the ones callers set, with every other constant fixed at
module level."""

import importlib
import inspect
import pkgutil
from dataclasses import fields

import pytest

import failprob
from failprob import bss, estimators, smc
from failprob.bench import run_estimator, run_rmse_experiment
from failprob.bss import BssConfig, run_bss
from failprob.core import InputDistribution
from failprob.design import maximin_lhs
from failprob.estimators import SubsetSimConfig
from failprob.gp import fit_reml, reml_objective
from failprob.smc import rwmh_move
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
    assert [f.name for f in fields(BssConfig)] == ["m", "p0"]
    assert [f.name for f in fields(SubsetSimConfig)] == ["m", "m0"]
    assert [f.name for f in fields(InputDistribution)] == ["mean", "sd"]
    assert not hasattr(smc, "RwmhState")  # the move takes its log steps as an array


def test_module_constants():
    # the values the retired settings defaulted to, read at call time
    assert (bss.N_MIN, bss.N0_PER_DIM, bss.MAX_STAGES, bss.MAX_TOTAL_EVALUATIONS) == (
        2, 5, 50, 2000)
    assert estimators.MAX_STAGES == 50
    assert smc.SWEEPS == 10


def _parameters(fn) -> list[str]:
    return [p.name if p.default is p.empty else f"{p.name}={p.default!r}"
            for p in inspect.signature(fn).parameters.values()]


def test_entry_point_parameters():
    # one calling convention per entry point: an optional parameter that only
    # tests set keeps a second path alive, so a new one is a deliberate change
    assert _parameters(rwmh_move) == ["points", "log_density", "log_factor", "log_sigma", "rng",
                                      "current", "screen"]
    assert _parameters(select_next_point) == ["model", "points", "mean", "sd", "log_g_prev", "u_t"]
    assert _parameters(prune) == ["scores"]
    assert _parameters(reml_objective) == [
        "design_points", "design_values", "log_ranges", "neg_sq_diffs", "sigma2_bounds"]
    assert _parameters(fit_reml) == ["design_points", "design_values", "rng", "n_starts",
                                     "init=None"]
    assert _parameters(run_bss) == ["problem", "config", "seed"]
    assert _parameters(maximin_lhs) == ["n0", "lower", "upper", "q_candidates", "rng"]
    assert _parameters(run_estimator) == ["problem", "method", "m", "seed", "p0=0.1"]
    assert _parameters(run_rmse_experiment) == [
        "case_name", "methods", "m_values", "runs", "seed", "jobs=1"]
