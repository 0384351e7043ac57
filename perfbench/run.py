"""failprob benchmark: timed estimator runs, plus a traced per-layer run.

    python3 perfbench/run.py --workload bss-four-branch --seed 1 --seconds 25 --trace 0

Each workload runs one estimator on one benchmark case in this process, as
a closed loop with one caller: a run starts when the previous one ends. The
timed runs are a fixed panel (root seed PANEL_ROOT, runs 0..k-1) whose size
k follows from --seconds, so every invocation and every commit times the
same estimator runs and the accuracy figures compare like with like.
--seed picks the untimed warm-up run, a fresh seed outside the panel that
is checked like every other run. Panel times are scaled to the speed of the
machine that defined the benchmark by a calibration timed before each run.
See README.md for the workloads and the metrics.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it is the full report (host and
thread settings, load, per-run seeds, alpha_hat.hex() and n_total).
"""

from __future__ import annotations

import os

# One BLAS / OpenMP thread, set before numpy is first imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse
import json
import math
import platform
import resource
import socket
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "failprob" / "__init__.py").is_file():
    sys.exit(f"perfbench: failprob sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy
from scipy.linalg import cho_factor, cho_solve

from failprob import bench, bss, estimators
from tracing import Tracer

PANEL_ROOT = 20260809
WARMUP_RUN = -1  # run index of the warm-up seed; panel runs are 0..k-1
WARMUP_M_DIV = 4  # the warm-up runs at m / 4, to keep it cheap next to the panel
SETUP_REPEATS = 5
SETUP_CODE = "from failprob import bench\nfor make in bench.CASES.values():\n    make()\n"
RMSE_SANITY = 1.0  # a panel whose relative RMSE reaches this is wrong, not unlucky
CAL_REF_S = 0.12  # calibration seconds on the machine that defined the benchmark


@dataclass(frozen=True)
class Workload:
    name: str
    case: str
    method: str
    m: int
    nominal_run_s: float  # seconds per run when the benchmark was defined; sets k


# Why each workload is here: README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("bss-four-branch", "four-branch", "bss", 2000, 10.0),
    Workload("bss-oscillator", "oscillator", "bss", 2000, 2.0),
    Workload("ss-oscillator", "oscillator", "ss", 100_000, 2.5),
)}


def panel_size(wl: Workload, seconds: float) -> int:
    return max(1, math.ceil(seconds / wl.nominal_run_s))


def run_seed(wl: Workload, root: int, run: int) -> int:
    return bench.per_run_seed(root, wl.case, wl.method, wl.m, run)


def run_estimator(wl: Workload, problem, seed: int):
    # Looked up through the modules so that the tracer's patches apply.
    if wl.method == "bss":
        return bss.run_bss(problem, bss.BssConfig(m=wl.m), seed)
    config = estimators.SubsetSimConfig(m=wl.m, m0=wl.m // 10)
    return estimators.run_subset_simulation(problem, config, seed)


def failure(res) -> str | None:
    """Why a finished run counts as failed, or None if it passed."""
    if res.error is not None:
        return f"error: {res.error}"
    if res.degenerate:
        return "degenerate"
    if not (math.isfinite(res.alpha_hat) and 0.0 < res.alpha_hat < 1.0):
        return f"alpha_hat {res.alpha_hat!r} outside (0, 1)"
    if not res.n_total > 0:
        return f"n_total {res.n_total} not positive"
    return None


def timed_run(wl: Workload, case, seed: int, run) -> dict:
    t0 = perf_counter()
    try:
        res = run_estimator(wl, case.problem, seed)
    except Exception as exc:  # recorded as a failed run; the panel goes on
        return {"run": run, "seed": seed, "s": perf_counter() - t0,
                "alpha_hat": None, "n_total": 0, "failure": f"raised {exc!r}"}
    return {"run": run, "seed": seed, "s": perf_counter() - t0,
            "alpha_hat": res.alpha_hat.hex(), "n_total": res.n_total, "failure": failure(res)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rel_rmse(case, runs: list[dict]) -> float:
    errs = [float.fromhex(r["alpha_hat"]) / case.alpha_ref - 1.0 for r in runs]
    return math.sqrt(statistics.fmean(e * e for e in errs))


def calibrate() -> float:
    """Seconds for fixed work that shares no code with failprob: small
    Cholesky solves, a large elementwise numpy pass and a Python loop, the
    mix a failprob run does. Its arrays are freed before the next run, so
    they do not raise the run's peak memory."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 50))
    a = a @ a.T + 50.0 * np.eye(50)
    b = rng.standard_normal((50, 2000))
    c = rng.standard_normal((200_000, 6))
    t0 = perf_counter()
    for _ in range(10):
        cho_solve(cho_factor(a), b)
        np.exp(c).sum(axis=1)
        s = 0
        for i in range(20_000):
            s += i
    return perf_counter() - t0


def end_to_end(case, runs: list[dict], speed: float) -> dict:
    """{name: (value, unit)} over the panel; accuracy only from passing runs.

    Times are scaled by `speed` = CAL_REF_S / median calibration time, so
    they read as seconds on the machine that defined the benchmark.
    """
    metrics = {
        "run_s_p50": (statistics.median(r["s"] for r in runs) * speed, "s"),
        "wall_s": (sum(r["s"] for r in runs) * speed, "s"),
    }
    ok = [r for r in runs if r["failure"] is None]
    if ok:
        metrics["evals_per_run"] = (statistics.fmean(r["n_total"] for r in ok), "count")
        metrics["rel_rmse"] = (rel_rmse(case, ok), "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up once on a fresh seed, then time the panel (traced: half of it,
    each run once untraced and once traced). Returns the workload report."""
    case = bench.CASES[wl.case]()
    small = replace(wl, m=wl.m // WARMUP_M_DIV)
    warmup = timed_run(small, case, run_seed(small, seed, WARMUP_RUN), "warmup")
    k = panel_size(wl, seconds)
    if trace:
        k = math.ceil(k / 2)
    seeds = [run_seed(wl, PANEL_ROOT, r) for r in range(k)]
    report = {"workload": wl.name, "seed": seed, "panel_root": PANEL_ROOT, "panel_runs": k,
              "trace": int(trace), "warmup": warmup}
    runs: list[dict] = []
    if not trace:
        # A shared host's speed drifts by up to 30% within minutes; timing the
        # calibration before every run lets the scaled times cancel that drift.
        report["calibration_s"] = []
        for r, s in enumerate(seeds):
            report["calibration_s"].append(calibrate())
            runs.append(timed_run(wl, case, s, r))
        speed = CAL_REF_S / statistics.median(report["calibration_s"])
        metrics = end_to_end(case, runs, speed)
        report["unscaled_s"] = {"run_s_p50": statistics.median(r["s"] for r in runs),
                                "wall_s": sum(r["s"] for r in runs)}
    else:
        tracer = Tracer()
        traced: list[dict] = []
        for r, s in enumerate(seeds):
            runs.append(timed_run(wl, case, s, r))
            with tracer.install():
                traced.append(timed_run(wl, case, s, r))
        metrics, report["absent"] = tracer.layer_metrics(k)
        untraced_s = sum(r["s"] for r in runs)
        traced_s = sum(r["s"] for r in traced)
        metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
        report["traced_runs"] = traced
        report["identity_mismatches"] = [
            a["run"] for a, b in zip(runs, traced)
            if (a["alpha_hat"], a["n_total"]) != (b["alpha_hat"], b["n_total"])
        ]
        report["traced_wall_s"] = traced_s
        report["self_s_total"] = sum(tracer.self_s.values())
        report["largest_layer"] = tracer.largest_layer()
    report["runs"] = runs
    checked = [warmup] + runs + report.get("traced_runs", [])
    report["attempted"] = len(checked)
    report["failed"] = sum(r["failure"] is not None for r in checked)
    report["fail_frac"] = report["failed"] / report["attempted"]
    ok = [r for r in runs if r["failure"] is None]
    sane = not ok or rel_rmse(case, ok) < RMSE_SANITY
    report["correct"] = report["failed"] == 0 and sane and not report.get("identity_mismatches")
    report["metrics"] = metrics
    return report


def measure_setup() -> list[float]:
    """Seconds for a fresh interpreter to import failprob and build the cases."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        # No timeout: with one, the wait polls and rounds the time to 50 ms.
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def openblas_version() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def environment() -> dict:
    return {
        "host": socket.gethostname(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_version(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def result_line(reports: list[dict], setup_times: list[float] | None) -> dict:
    """The contract line; metric names get a workload prefix for --workload all."""
    prefix = len(reports) > 1
    metrics = {}
    for rep in reports:
        for name, (value, unit) in rep["metrics"].items():
            key = f"{rep['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    if setup_times is not None:
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    return {
        "correct": all(rep["correct"] for rep in reports),
        "attempted": sum(rep["attempted"] for rep in reports),
        "failed": sum(rep["failed"] for rep in reports),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured seconds per workload; sets the panel size")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    load_start = os.getloadavg()
    setup_times = None if args.trace else measure_setup()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names]
    result = result_line(reports, setup_times)
    report = {"env": environment(), "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
              "setup_s_samples": setup_times, "workloads": reports}

    for rep in reports:
        print(f"{rep['workload']}: {rep['attempted']} runs, fail_frac {rep['fail_frac']:g}, "
              f"correct {rep['correct']}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
