"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps failprob's public functions from outside the package: each
name is patched where its caller looks it up (``failprob.bss.fit_reml``,
``failprob.sur.binorm_cdf``, ...), so the program itself is unchanged and
the wrappers are removed again when the traced run ends. A wrapped call is
a span; spans nest, and a span's self time is its duration minus the
durations of the spans opened directly inside it.

A target that no longer exists (a module, function or method removed by a
refactor) is skipped and its metrics are reported as absent.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# (span name, sites where a caller looks the name up). A site is
# (module, attribute path); a dotted path names a method on a class.
TIMED = (
    ("bss.run_bss", (("failprob.bss", "run_bss"),)),
    ("estimators.run_subset_simulation", (("failprob.estimators", "run_subset_simulation"),)),
    ("design.maximin_lhs", (("failprob.bss", "maximin_lhs"),)),
    ("gp.fit_reml", (("failprob.bss", "fit_reml"),)),
    ("gp.reml_objective", (("failprob.gp", "reml_objective"),)),
    ("gp.GpModel.init", (("failprob.gp", "GpModel.__init__"),)),
    ("gp.GpModel.predict", (("failprob.gp", "GpModel.predict"),)),
    ("gp.GpModel.posterior_cov", (("failprob.gp", "GpModel.posterior_cov"),)),
    ("bss.solve_threshold", (("failprob.bss", "solve_threshold"),)),
    ("bss.misclass_sum", (("failprob.bss", "misclass_sum"),)),
    ("sur.select_next_point", (("failprob.bss", "select_next_point"),)),
    ("stats.binorm_cdf", (("failprob.sur", "binorm_cdf"),)),
    ("smc.rwmh_move", (("failprob.bss", "rwmh_move"), ("failprob.estimators", "rwmh_move"))),
    ("smc.reweight", (("failprob.bss", "reweight"),)),
    ("smc.residual_resample", (("failprob.bss", "residual_resample"),
                               ("failprob.estimators", "residual_resample"))),
    ("core.EvaluationLedger.evaluate", (("failprob.core", "EvaluationLedger.evaluate"),)),
    ("core.InputDistribution.log_density", (("failprob.core", "InputDistribution.log_density"),)),
)

# log_coverage_g is counted, not timed: only its calls inside a threshold solve.
PREDICATE_SITE = ("failprob.bss", "log_coverage_g")

# Spans that are whole estimator runs; every other span is a layer.
ROOT_SPANS = ("bss.run_bss", "estimators.run_subset_simulation")


def _resolve(site):
    """(owner, attribute, current value) for a site, or None if it is gone."""
    module_name, path = site
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def _on_evaluate(tr, out):
    tr.count("core.evaluate.points", len(out))


def _on_predict(tr, out):
    mean = out[0]
    tr.count("gp.GpModel.predict.points", 1 if isinstance(mean, float) else len(mean))


def _on_fit(tr, hyper):
    tr.count("gp.fit_reml.nonconverged", 0 if hyper.converged else 1)


def _on_fit_error(tr):
    tr.count("gp.fit_reml.errors", 1)


def _on_select(tr, sel):
    tr.count("sur.pairs", sel.n_candidates ** 2)
    tr.count("sur.scored", sel.n_scored)
    tr.count("sur.pruned", sel.n_pruned)


def _on_move(tr, out):
    points, diag = out[0], out[3]
    tr.count("smc.rwmh_move.acceptance_sum", sum(diag.acceptance))
    tr.count("smc.rwmh_move.sweeps", len(diag.acceptance))
    tr.count("smc.rwmh_move.proposals", len(points) * len(diag.acceptance))


HOOKS = {
    "core.EvaluationLedger.evaluate": (_on_evaluate, None),
    "gp.GpModel.predict": (_on_predict, None),
    "gp.fit_reml": (_on_fit, _on_fit_error),
    "sur.select_next_point": (_on_select, None),
    "smc.rwmh_move": (_on_move, None),
}


class Tracer:
    """Aggregated spans (calls, total and self seconds) and counters."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.installed: set[str] = set()
        self._open: list[list] = []  # [name, seconds spent in direct child spans]

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _span(self, name, fn, on_return=None, on_error=None):
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._open.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error(self)
                raise
            finally:
                dt = perf_counter() - t0
                self._open.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + dt
                self.self_s[name] = self.self_s.get(name, 0.0) + dt - frame[1]
                if self._open:
                    self._open[-1][1] += dt
            if on_return is not None:
                on_return(self, out)
            return out
        return wrapper

    def _predicate_counter(self, fn):
        def wrapper(*args, **kwargs):
            if self._open and self._open[-1][0] == "bss.solve_threshold":
                self.count("bss.solve_threshold.predicates", 1)
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def install(self, timed=TIMED):
        """Patch every target that exists; restore the originals on exit."""
        patched = []
        try:
            for name, sites in timed:
                on_return, on_error = HOOKS.get(name, (None, None))
                for site in sites:
                    found = _resolve(site)
                    if found is None:
                        continue
                    owner, attr, original = found
                    patched.append((owner, attr, original))
                    setattr(owner, attr, self._span(name, original, on_return, on_error))
                    self.installed.add(name)
            found = _resolve(PREDICATE_SITE)
            if found is not None and "bss.solve_threshold" in self.installed:
                owner, attr, original = found
                patched.append((owner, attr, original))
                setattr(owner, attr, self._predicate_counter(original))
                self.installed.add("bss.solve_threshold.predicates")
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def layer_metrics(self, runs: int, timed=TIMED) -> tuple[dict, list[str]]:
        """Per-run layer metrics as {name: (value, unit)}, plus absent names."""
        metrics: dict[str, tuple[float, str]] = {}
        absent: list[str] = []

        def per_run(x):
            return x / runs

        def ratio(num, den):
            return num / den if den else 0.0

        for name, _ in timed:
            if name not in self.installed:
                absent += [f"{name}.calls", f"{name}.s", f"{name}.self_s"]
                continue
            metrics[f"{name}.calls"] = (per_run(self.calls.get(name, 0)), "count/run")
            metrics[f"{name}.s"] = (per_run(self.total_s.get(name, 0.0)), "s/run")
            metrics[f"{name}.self_s"] = (per_run(self.self_s.get(name, 0.0)), "s/run")

        def count(key):
            return self.counts.get(key, 0)

        derived = {  # name: (spans it needs, value, unit)
            "core.evaluate.points": (("core.EvaluationLedger.evaluate",),
                                     per_run(count("core.evaluate.points")), "count/run"),
            "gp.GpModel.predict.points": (("gp.GpModel.predict",),
                                          per_run(count("gp.GpModel.predict.points")), "count/run"),
            "gp.fit_reml.nonconverged": (("gp.fit_reml",),
                                         per_run(count("gp.fit_reml.nonconverged")), "count/run"),
            "gp.fit_reml.errors": (("gp.fit_reml",), per_run(count("gp.fit_reml.errors")), "count/run"),
            "gp.reml_objective.per_fit": (("gp.reml_objective", "gp.fit_reml"),
                                          ratio(self.calls.get("gp.reml_objective", 0),
                                                self.calls.get("gp.fit_reml", 0)), "ratio"),
            "sur.pairs": (("sur.select_next_point",), per_run(count("sur.pairs")), "count/run"),
            "sur.kept_frac": (("sur.select_next_point",),
                              ratio(count("sur.pruned"), count("sur.scored")), "ratio"),
            "bss.solve_threshold.predicates": (("bss.solve_threshold.predicates",),
                                               per_run(count("bss.solve_threshold.predicates")),
                                               "count/run"),
            "smc.rwmh_move.acceptance": (("smc.rwmh_move",),
                                         ratio(count("smc.rwmh_move.acceptance_sum"),
                                               count("smc.rwmh_move.sweeps")), "ratio"),
            "smc.rwmh_move.proposals": (("smc.rwmh_move",),
                                        per_run(count("smc.rwmh_move.proposals")), "count/run"),
        }
        for name, (needs, value, unit) in derived.items():
            if all(n in self.installed for n in needs):
                metrics[name] = (float(value), unit)
            else:
                absent.append(name)
        return metrics, absent

    def largest_layer(self) -> str | None:
        """The non-root span with the most inclusive time."""
        layers = {n: s for n, s in self.total_s.items() if n not in ROOT_SPANS}
        return max(layers, key=layers.get) if layers else None
