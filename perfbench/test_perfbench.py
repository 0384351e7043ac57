"""Tests of the benchmark itself: output schema, metric names, span
accounting, traced/untraced identity and missing-target handling.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracing

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# Small enough for a test, large enough that bss runs SUR, ReML and the move kernel.
TINY_BSS = run.Workload("tiny-bss", "four-branch", "bss", 300, 1.0)
TINY_SS = run.Workload("tiny-ss", "oscillator", "ss", 2000, 1.0)


def _result(*args):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args], capture_output=True,
                         text=True, check=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_schema(trace, section):
    report, result = _result("--workload", "ss-oscillator", "--seed", "11",
                             "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for v in result["metrics"].values():
        assert isinstance(v["value"], float) and math.isfinite(v["value"])
    env = report["env"]
    assert env["threads"] == run.THREAD_ENV and env["nproc"] >= 1
    assert len(report["loadavg_start"]) == 3 and len(report["loadavg_end"]) == 3
    wl = report["workloads"][0]
    rec = wl["runs"][0]
    assert float.fromhex(rec["alpha_hat"]) > 0.0 and rec["n_total"] > 0 and rec["seed"] >= 0
    if trace == "0":
        assert len(wl["calibration_s"]) == wl["panel_runs"]
        speed = run.CAL_REF_S / sorted(wl["calibration_s"])[len(wl["calibration_s"]) // 2]
        unscaled = sum(r["s"] for r in wl["runs"])
        assert wl["unscaled_s"]["wall_s"] == pytest.approx(unscaled)
        assert result["metrics"]["wall_s"]["value"] == pytest.approx(unscaled * speed)


def test_metric_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names)
    tr = tracing.Tracer()
    with tr.install():
        pass
    metrics, absent = tr.layer_metrics(1)
    assert absent == []
    assert all(NAME_RE.fullmatch(n) for n in metrics)
    assert set(metrics) | {"trace.overhead_frac"} == {m["name"] for m in SPEC["per_layer"]}


def test_self_times_within_run_wall_time():
    case = run.bench.CASES[TINY_BSS.case]()
    tr = tracing.Tracer()
    with tr.install():
        rec = run.timed_run(TINY_BSS, case, 12345, 0)
    assert rec["failure"] is None
    assert tr.calls["sur.select_next_point"] > 0 and tr.calls["gp.reml_objective"] > 0
    assert sum(tr.self_s.values()) <= rec["s"]
    for name, total in tr.total_s.items():
        assert 0.0 <= tr.self_s[name] <= total + 1e-9


@pytest.mark.parametrize("wl", [TINY_BSS, TINY_SS], ids=lambda w: w.name)
def test_traced_run_matches_untraced(wl):
    report = run.run_workload(wl, seed=3, seconds=2, trace=True)
    assert report["panel_runs"] == 1
    assert report["identity_mismatches"] == []
    plain, traced = report["runs"][0], report["traced_runs"][0]
    assert (plain["alpha_hat"], plain["n_total"]) == (traced["alpha_hat"], traced["n_total"])
    assert report["correct"] and report["failed"] == 0


def test_missing_targets_are_absent(monkeypatch):
    import failprob.smc
    import failprob.sur

    monkeypatch.delattr(failprob.sur, "binorm_cdf")
    timed = tracing.TIMED + (("gone.module", (("failprob.no_such_module", "f"),)),
                             ("gone.method", (("failprob.core", "EvaluationLedger.no_such"),)))
    tr = tracing.Tracer()
    case = run.bench.CASES[TINY_SS.case]()
    with tr.install(timed=timed):
        rec = run.timed_run(TINY_SS, case, 7, 0)
    assert rec["failure"] is None
    assert run.estimators.rwmh_move is failprob.smc.rwmh_move  # originals restored
    metrics, absent = tr.layer_metrics(1, timed=timed)
    for name in ("stats.binorm_cdf", "gone.module", "gone.method"):
        assert {f"{name}.calls", f"{name}.s", f"{name}.self_s"} <= set(absent)
        assert f"{name}.calls" not in metrics
    assert metrics["smc.rwmh_move.calls"][0] > 0
    assert metrics["core.evaluate.points"][0] == rec["n_total"]


def _fake(**kw):
    base = dict(error=None, degenerate=False, alpha_hat=1e-6, n_total=10)
    return SimpleNamespace(**{**base, **kw})


@pytest.mark.parametrize("kw,reason", [
    ({}, None),
    ({"error": "boom"}, "error"),
    ({"degenerate": True}, "degenerate"),
    ({"alpha_hat": float("nan")}, "outside"),
    ({"alpha_hat": 0.0}, "outside"),
    ({"alpha_hat": 1.0}, "outside"),
    ({"n_total": 0}, "not positive"),
])
def test_run_checks(kw, reason):
    got = run.failure(_fake(**kw))
    assert (got is None) if reason is None else (reason in got)


def test_raising_run_counts_as_failed(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("estimator blew up")

    monkeypatch.setattr(run.estimators, "run_subset_simulation", boom)
    rec = run.timed_run(TINY_SS, run.bench.CASES[TINY_SS.case](), 1, 0)
    assert "estimator blew up" in rec["failure"] and rec["alpha_hat"] is None
