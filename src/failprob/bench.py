"""The three structural-reliability benchmark cases and the RMSE study harness.

Reference probabilities are the published values for these cases (obtained
from one hundred subset simulation runs at m = 1e7); `recompute_reference`
offers a cheaper subset-simulation sanity check. `run_estimator` is the one
place that maps a method name to its estimator, and `csv_table` the one CSV
writer, for this module and the command line alike.
"""

from __future__ import annotations

import csv
import io
import math
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .bss import BssConfig, run_bss
from .core import (Direction, EstimationResult, InputDistribution, Normal, Problem,
                   set_kernel_threads)
from .estimators import SubsetSimConfig, monte_carlo_estimate, run_subset_simulation

__all__ = [
    "BenchmarkCase",
    "four_branch",
    "cantilever_beam",
    "nonlinear_oscillator",
    "CASES",
    "RmseRow",
    "RmseTable",
    "csv_table",
    "run_estimator",
    "run_single",
    "run_rmse_experiment",
    "recompute_reference",
    "per_run_seed",
]


@dataclass(frozen=True)
class BenchmarkCase:
    name: str
    problem: Problem
    alpha_ref: float
    alpha_ref_cov: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_ref < 1.0:
            raise ValueError("alpha_ref must be in (0, 1)")


_SQRT2 = math.sqrt(2.0)


def _four_branch_f(x: np.ndarray) -> np.ndarray:
    x1, x2 = x[:, 0], x[:, 1]
    q = 0.1 * (x1 - x2) ** 2
    s = (x1 + x2) / _SQRT2
    b1 = 3.0 + q - s
    b2 = 3.0 + q + s
    b3 = (x1 - x2) + 6.0 / _SQRT2
    b4 = (x2 - x1) + 6.0 / _SQRT2
    return np.minimum(np.minimum(b1, b2), np.minimum(b3, b4))


def four_branch() -> BenchmarkCase:
    """Series system with four branches; failure when the minimum drops below -4."""
    problem = Problem(
        limit_state=_four_branch_f,
        input=InputDistribution.iid_normal(2),
        threshold=-4.0,
        direction=Direction.BELOW,
    )
    return BenchmarkCase("four-branch", problem, alpha_ref=5.596e-9, alpha_ref_cov=0.0004)


def _cantilever_f(x: np.ndarray) -> np.ndarray:
    # tip deflection (3 L^4 / 2 E) * load / thickness^3, L = 6 m, E = 2.6e4 MPa
    return (3.0 * 6.0**4 / (2.0 * 2.6e4)) * x[:, 0] / x[:, 1] ** 3


def cantilever_beam() -> BenchmarkCase:
    """Cantilever beam tip deflection; failure when it exceeds L/325."""
    problem = Problem(
        limit_state=_cantilever_f,
        input=InputDistribution((Normal(1e-3, 0.2e-3), Normal(0.3, 0.03))),
        threshold=6.0 / 325.0,
        direction=Direction.ABOVE,
    )
    return BenchmarkCase("cantilever", problem, alpha_ref=3.937e-6, alpha_ref_cov=0.0003)


def _oscillator_f(x: np.ndarray) -> np.ndarray:
    x1, x2, x3, x4, x5, x6 = (x[:, i] for i in range(6))
    with np.errstate(invalid="ignore", divide="ignore"):
        w0sq = (x2 + x3) / x1
        ok = (x1 > 0.0) & (w0sq > 0.0)
        w0 = np.sqrt(np.where(ok, w0sq, 1.0))
        out = 3.0 * x4 - np.abs(2.0 * x5 / (x1 * w0 * w0) * np.sin(w0 * x6 / 2.0))
    return np.where(ok, out, np.nan)


def nonlinear_oscillator() -> BenchmarkCase:
    """Nonlinear oscillator response; failure when the margin drops below 0."""
    marginals = (
        Normal(1.0, 0.05), Normal(1.0, 0.1), Normal(0.1, 0.01),
        Normal(0.5, 0.05), Normal(0.45, 0.075), Normal(1.0, 0.2),
    )
    problem = Problem(
        limit_state=_oscillator_f,
        input=InputDistribution(marginals),
        threshold=0.0,
        direction=Direction.BELOW,
    )
    return BenchmarkCase("oscillator", problem, alpha_ref=1.514e-8, alpha_ref_cov=0.0004)


CASES = {
    "four-branch": four_branch,
    "cantilever": cantilever_beam,
    "oscillator": nonlinear_oscillator,
}


def per_run_seed(root_seed: int, case: str, method: str, m: int, run: int) -> int:
    """Stable per-run seed, independent of execution order and worker count."""
    import hashlib

    key = f"{root_seed}|{case}|{method}|{m}|{run}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little") >> 1


def run_estimator(problem: Problem, method: str, m: int, seed: int, p0: float = 0.1,
                  collect_trace: bool = False) -> EstimationResult:
    """One seeded run of method "mc", "ss" or "bss" at sample size m; bss
    records its SUR trace when `collect_trace` is set. The configuration is
    built before the estimator starts; a rejected one raises ConfigError."""
    if method == "mc":
        return monte_carlo_estimate(problem, m, seed)
    if method == "ss":
        return run_subset_simulation(problem, SubsetSimConfig(m=m, m0=int(round(p0 * m))), seed)
    if method == "bss":
        return run_bss(problem, BssConfig(m=m, p0=p0), seed, collect_trace=collect_trace)
    raise ValueError(f"unknown method {method!r}")


def run_single(case_name: str, method: str, m: int, run: int,
               root_seed: int) -> tuple[EstimationResult, float]:
    """One seeded estimator run on a benchmark case, and the wall time of the
    estimator call in ms (picklable for pools)."""
    problem = CASES[case_name]().problem
    seed = per_run_seed(root_seed, case_name, method, m, run)
    t0 = time.perf_counter()
    res = run_estimator(problem, method, m, seed)
    return res, (time.perf_counter() - t0) * 1e3


def _csv_cell(v) -> str:
    if v is None:
        return ""
    return str(v) if isinstance(v, (int, str)) else repr(float(v))


def csv_table(columns, rows) -> str:
    """CSV text: a header line of `columns`, then one line per row of values.
    None is written as "", ints and strings with str, and every other value
    as repr(float(v)), which reads back to the same double; a cell holding a
    comma, quote or line break is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(_csv_cell, row) for row in rows)
    return buf.getvalue()


@dataclass
class RmseRow:
    """Statistics over the `runs` usable runs at one m; `failures` runs
    raised or were degenerate. With no usable run the statistics are None."""

    method: str
    case: str
    m: int
    runs: int
    failures: int
    mean_est: float | None = None
    rel_rmse: float | None = None
    rel_abs_bias: float | None = None
    cov: float | None = None
    n_evals_mean: float | None = None
    n_evals_init: float | None = None
    n_evals_intermediate: float | None = None
    n_evals_final: float | None = None
    wall_ms_median: float | None = None


@dataclass
class RmseTable:
    rows: list[RmseRow] = field(default_factory=list)
    per_run: list[dict] = field(default_factory=list)

    CSV_COLUMNS = (
        "method,case,m,runs,failures,mean_est,rel_rmse,rel_abs_bias,cov,"
        "n_evals_mean,n_evals_init,n_evals_intermediate,n_evals_final,wall_ms_median"
    )
    PER_RUN_COLUMNS = (
        "method,case,m,run,alpha_hat,delta_hat,n_total,n_reported,"
        "n_init,n_intermediate,n_final,error,wall_ms"
    )

    def to_csv(self) -> str:
        cols = self.CSV_COLUMNS.split(",")
        return csv_table(cols, ([getattr(r, c) for c in cols] for r in self.rows))

    def per_run_csv(self) -> str:
        cols = self.PER_RUN_COLUMNS.split(",")
        return csv_table(cols, ([row[c] for c in cols] for row in self.per_run))


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _worker_pool(jobs: int):
    """`jobs` spawned worker processes, each with one BLAS thread and a
    one-thread kernel pool, so the study keeps at most `jobs` threads busy.

    Spawned workers import numpy afresh under one BLAS thread each; forked
    ones keep the BLAS pool size the parent loaded numpy with, and `jobs`
    such pools oversubscribe the cores.
    """
    spawn = multiprocessing.get_context("spawn")
    with _one_blas_thread_env(), ProcessPoolExecutor(
            max_workers=jobs, mp_context=spawn,
            initializer=set_kernel_threads, initargs=(1,)) as pool:
        yield pool


@contextmanager
def _one_blas_thread_env():
    """Set the BLAS / OpenMP thread variables to 1 in os.environ, restoring
    the previous values (or their absence) on exit."""
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def run_rmse_experiment(case: BenchmarkCase, method: str, m_values, runs: int,
                        seed: int, jobs: int = 1) -> RmseTable:
    """Seeded replication study: per-m relative RMSE, bias, CoV, eval budgets.

    Per-run substreams make parallel and serial execution produce identical
    statistics. A run that raised or is degenerate is excluded and counted
    in its row's `failures`, and its per-run `error` says which (the
    message, or "degenerate"); every m keeps its row, with no statistics
    when no run is usable. Warnings raised in a
    run, in this process or in a worker, are issued again here, in run order.
    """
    if runs < 2:
        raise ValueError("need runs >= 2")
    tasks = [(case.name, method, int(m), r, seed) for m in m_values for r in range(runs)]
    if jobs > 1:
        with _worker_pool(jobs) as pool:
            results = list(pool.map(_study_run, tasks, chunksize=1))
    else:
        results = [_study_run(t) for t in tasks]
    for _, _, caught in results:
        for category, message in caught:
            warnings.warn(message, category, stacklevel=2)

    table = RmseTable()
    by_m: dict[int, list[tuple[int, EstimationResult, float]]] = {}
    for (_, _, m, r, _), (res, wall_ms, _) in zip(tasks, results):
        by_m.setdefault(m, []).append((r, res, wall_ms))
    for m in sorted(by_m):
        runs_m = sorted(by_m[m], key=lambda t: t[0])
        good = [(res, wall_ms) for _, res, wall_ms in runs_m
                if res.error is None and not res.degenerate]
        failures = len(runs_m) - len(good)
        for r, res, wall_ms in runs_m:
            table.per_run.append({
                "method": method, "case": case.name, "m": m, "run": r,
                "alpha_hat": res.alpha_hat, "delta_hat": res.delta_hat,
                "n_total": res.n_total, "n_reported": res.n_reported,
                "n_init": res.n_initial, "n_intermediate": res.n_intermediate,
                "n_final": res.n_final,
                "error": res.error or ("degenerate" if res.degenerate else None),
                "wall_ms": wall_ms,
            })
        if not good:
            table.rows.append(RmseRow(method=method, case=case.name, m=m, runs=0,
                                      failures=failures))
            continue
        est = np.array([res.alpha_hat for res, _ in good])
        walls = np.array([wall_ms for _, wall_ms in good])
        ref = case.alpha_ref
        mean_est = float(est.mean())
        rel_rmse = float(np.sqrt(np.mean((est - ref) ** 2)) / ref)
        rel_abs_bias = float(abs(mean_est - ref) / ref)
        cov = float(est.std(ddof=1) / mean_est) if mean_est > 0 else float("nan")
        table.rows.append(RmseRow(
            method=method, case=case.name, m=m, runs=len(good), failures=failures,
            mean_est=mean_est, rel_rmse=rel_rmse, rel_abs_bias=rel_abs_bias, cov=cov,
            n_evals_mean=float(np.mean([res.n_reported for res, _ in good])),
            n_evals_init=float(np.mean([res.n_initial for res, _ in good])),
            n_evals_intermediate=float(np.mean([res.n_intermediate for res, _ in good])),
            n_evals_final=float(np.mean([res.n_final for res, _ in good])),
            wall_ms_median=float(np.median(walls)),
        ))
    return table


def _study_run(task) -> tuple[EstimationResult, float, list[tuple[type, str]]]:
    """`run_single` for one study task, in this process or a worker: the
    result, its wall time in ms, and the category and message of every
    warning the run raised. A run that raises gives an error result."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res, wall_ms = run_single(*task)
        except Exception as exc:  # individual run failures are recorded, not fatal
            res = EstimationResult(method=task[1], alpha_hat=float("nan"), error=str(exc))
            wall_ms = float("nan")
    return res, wall_ms, [(w.category, str(w.message)) for w in caught]


def recompute_reference(case: BenchmarkCase, m: int = 1_000_000, runs: int = 10,
                        seed: int = 20260809) -> tuple[float, float]:
    """Cheaper reference check: mean and CoV of `runs` ss runs at p0 = 0.1."""
    cfg = SubsetSimConfig(m=m, m0=int(round(0.1 * m)))
    ests = []
    for r in range(runs):
        s = per_run_seed(seed, case.name, "ss-ref", m, r)
        ests.append(run_subset_simulation(case.problem, cfg, s).alpha_hat)
    arr = np.array(ests)
    return float(arr.mean()), float(arr.std(ddof=1) / arr.mean())
