"""The three structural-reliability benchmark cases and the RMSE study harness.

Reference probabilities are the published values for these cases (obtained
from one hundred subset simulation runs at m = 1e7); `recompute_reference`
offers a cheaper subset-simulation sanity check.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
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


def run_single(case_name: str, method: str, m: int, run: int, root_seed: int,
               p0: float = 0.1, overrides: dict | None = None) -> EstimationResult:
    """One seeded estimator run on a benchmark case (picklable for pools)."""
    case = CASES[case_name]()
    seed = per_run_seed(root_seed, case_name, method, m, run)
    t0 = time.perf_counter()
    if method == "mc":
        res = monte_carlo_estimate(case.problem, m, seed)
    elif method == "ss":
        cfg = SubsetSimConfig(m=m, m0=int(round(p0 * m)))
        res = run_subset_simulation(case.problem, cfg, seed)
    elif method == "bss":
        cfg = BssConfig(m=m, p0=p0, **(overrides or {}))
        res = run_bss(case.problem, cfg, seed)
    else:
        raise ValueError(f"unknown method {method!r}")
    res.ledger = None  # keep results light for aggregation across processes
    res.trace = [{"wall_ms": (time.perf_counter() - t0) * 1e3, "run": run, "m": m}]
    return res


@dataclass
class RmseRow:
    method: str
    case: str
    m: int
    runs: int
    mean_est: float
    rel_rmse: float
    rel_abs_bias: float
    cov: float
    n_evals_mean: float
    n_evals_init: float
    n_evals_intermediate: float
    n_evals_final: float
    wall_ms_median: float
    failures: int = 0


@dataclass
class RmseTable:
    rows: list[RmseRow] = field(default_factory=list)
    per_run: list[dict] = field(default_factory=list)

    CSV_COLUMNS = (
        "method,case,m,runs,mean_est,rel_rmse,rel_abs_bias,cov,"
        "n_evals_mean,n_evals_init,n_evals_intermediate,n_evals_final,wall_ms_median"
    )

    def to_csv(self) -> str:
        lines = [self.CSV_COLUMNS]
        for r in self.rows:
            lines.append(",".join([
                r.method, r.case, str(r.m), str(r.runs),
                repr(r.mean_est), repr(r.rel_rmse), repr(r.rel_abs_bias), repr(r.cov),
                repr(r.n_evals_mean), repr(r.n_evals_init), repr(r.n_evals_intermediate),
                repr(r.n_evals_final), repr(r.wall_ms_median),
            ]))
        return "\n".join(lines) + "\n"

    def per_run_csv(self) -> str:
        header = "method,case,m,run,alpha_hat,delta_hat,n_total,n_reported,n_init,n_intermediate,n_final,wall_ms"
        lines = [header]
        for row in self.per_run:
            lines.append(",".join([
                row["method"], row["case"], str(row["m"]), str(row["run"]),
                repr(row["alpha_hat"]),
                repr(row["delta_hat"]) if row["delta_hat"] is not None else "",
                str(row["n_total"]), repr(row["n_reported"]),
                str(row["n_init"]), str(row["n_intermediate"]), str(row["n_final"]),
                repr(row["wall_ms"]),
            ]))
        return "\n".join(lines) + "\n"


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
                        seed: int, jobs: int = 1, p0: float = 0.1,
                        overrides: dict | None = None) -> RmseTable:
    """Seeded replication study: per-m relative RMSE, bias, CoV, eval budgets.

    Per-run substreams make parallel and serial execution produce identical
    statistics; failed runs are excluded and counted.
    """
    if runs < 2:
        raise ValueError("need runs >= 2")
    tasks = [(case.name, method, int(m), r, seed, p0, overrides)
             for m in m_values for r in range(runs)]
    if jobs > 1:
        with _worker_pool(jobs) as pool:
            results = list(pool.map(_run_single_star, tasks, chunksize=1))
    else:
        results = [_run_single_star(t) for t in tasks]

    table = RmseTable()
    by_m: dict[int, list[tuple[int, EstimationResult]]] = {}
    for (cname, meth, m, r, *_), res in zip(tasks, results):
        by_m.setdefault(m, []).append((r, res))
    for m in sorted(by_m):
        pairs = sorted(by_m[m], key=lambda t: t[0])
        good = [(r, res) for r, res in pairs if res.error is None and not res.degenerate]
        failures = len(pairs) - len(good)
        for r, res in pairs:
            table.per_run.append({
                "method": method, "case": case.name, "m": m, "run": r,
                "alpha_hat": res.alpha_hat, "delta_hat": res.delta_hat,
                "n_total": res.n_total, "n_reported": res.n_reported,
                "n_init": res.n_initial, "n_intermediate": res.n_intermediate,
                "n_final": res.n_final, "wall_ms": res.trace[0]["wall_ms"],
            })
        if not good:
            continue
        est = np.array([res.alpha_hat for _, res in good])
        walls = np.array([res.trace[0]["wall_ms"] for _, res in good])
        ref = case.alpha_ref
        mean_est = float(est.mean())
        rel_rmse = float(np.sqrt(np.mean((est - ref) ** 2)) / ref)
        rel_abs_bias = float(abs(mean_est - ref) / ref)
        cov = float(est.std(ddof=1) / mean_est) if mean_est > 0 else float("nan")
        table.rows.append(RmseRow(
            method=method, case=case.name, m=m, runs=len(good),
            mean_est=mean_est, rel_rmse=rel_rmse, rel_abs_bias=rel_abs_bias, cov=cov,
            n_evals_mean=float(np.mean([res.n_reported for _, res in good])),
            n_evals_init=float(np.mean([res.n_initial for _, res in good])),
            n_evals_intermediate=float(np.mean([res.n_intermediate for _, res in good])),
            n_evals_final=float(np.mean([res.n_final for _, res in good])),
            wall_ms_median=float(np.median(walls)),
            failures=failures,
        ))
    return table


def _run_single_star(args) -> EstimationResult:
    cname, method, m, r, seed, p0, overrides = args
    try:
        return run_single(cname, method, m, r, seed, p0=p0, overrides=overrides)
    except Exception as exc:  # individual run failures are recorded, not fatal
        res = EstimationResult(method=method, alpha_hat=float("nan"), error=str(exc))
        res.trace = [{"wall_ms": float("nan"), "run": r, "m": m}]
        return res


def recompute_reference(case: BenchmarkCase, m: int = 1_000_000, runs: int = 10,
                        seed: int = 20260809, p0: float = 0.1) -> tuple[float, float]:
    """Cheaper reference check: mean and CoV of `runs` subset simulation runs."""
    cfg = SubsetSimConfig(m=m, m0=int(round(p0 * m)))
    ests = []
    for r in range(runs):
        s = per_run_seed(seed, case.name, "ss-ref", m, r)
        ests.append(run_subset_simulation(case.problem, cfg, s).alpha_hat)
    arr = np.array(ests)
    return float(arr.mean()), float(arr.std(ddof=1) / arr.mean())
