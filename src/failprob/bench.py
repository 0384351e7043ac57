"""The three structural-reliability benchmark cases and the RMSE study harness.

Reference probabilities are the published values for these cases (obtained
from one hundred subset simulation runs at m = 1e7); a study of method "ss"
at m = 1e6 is a cheaper sanity check of them. `run_rmse_experiment` is the
one way to run a replication study, `_estimator` the one place that maps a
method name to its configured estimator (for it and the command line), and
`csv_table` the one CSV writer, for this module and the command line alike.

Importing this module, and running `mc` or `ss`, loads numpy but not scipy:
`_estimator` imports `bss`, which needs scipy, only for method "bss", and
`_worker_pool` imports the process pool only for a study with `jobs` > 1.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields
from functools import partial

import numpy as np

from . import smc
from .core import ConfigError, Direction, EstimationResult, InputDistribution, Problem
from .estimators import SubsetSimConfig, monte_carlo_estimate, run_subset_simulation

__all__ = [
    "BenchmarkCase",
    "four_branch",
    "cantilever_beam",
    "nonlinear_oscillator",
    "CASES",
    "RmseRow",
    "RunRow",
    "RmseTable",
    "csv_table",
    "run_rmse_experiment",
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
        input=InputDistribution(mean=[1e-3, 0.3], sd=[0.2e-3, 0.03]),
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
    problem = Problem(
        limit_state=_oscillator_f,
        input=InputDistribution(mean=[1.0, 1.0, 0.1, 0.5, 0.45, 1.0],
                                sd=[0.05, 0.1, 0.01, 0.05, 0.075, 0.2]),
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


def _estimator(method: str, m: int, p0: float = 0.1):
    """Method "mc", "ss" or "bss" at sample size m, configured: a picklable
    function of (problem, seed=...). A rejected configuration raises ConfigError."""
    if method == "mc":
        if m < 1:
            raise ConfigError("m must be >= 1")
        return partial(monte_carlo_estimate, m=m)
    if method == "ss":
        return partial(run_subset_simulation, config=SubsetSimConfig(m=m, m0=int(round(p0 * m))))
    if method == "bss":
        from .bss import BssConfig, run_bss  # the one scipy-bound method

        return partial(run_bss, config=BssConfig(m=m, p0=p0))
    raise ConfigError(f"unknown method {method!r}")


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
    """Statistics over the `runs` usable runs at one m (`failures` runs raised
    or were degenerate): None with no usable run, and `cov` None with one."""

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
class RunRow:
    """One study run; `error` is the run's error message, or "degenerate",
    for a run left out of the statistics."""

    method: str
    case: str
    m: int
    run: int
    alpha_hat: float
    delta_hat: float | None
    n_total: int
    n_reported: float
    n_init: int
    n_intermediate: int
    n_final: int
    error: str | None
    wall_ms: float


@dataclass
class RmseTable:
    rows: list[RmseRow] = field(default_factory=list)
    per_run: list[RunRow] = field(default_factory=list)

    def to_csv(self) -> str:
        return csv_table([f.name for f in fields(RmseRow)], map(astuple, self.rows))

    def per_run_csv(self) -> str:
        return csv_table([f.name for f in fields(RunRow)], map(astuple, self.per_run))


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _draw_inline() -> None:
    """Turn `smc.DRAW_AHEAD` off in this process: its runs draw inline."""
    smc.DRAW_AHEAD = False


@contextmanager
def _worker_pool(jobs: int):
    """`jobs` spawned worker processes, each with one BLAS thread and no
    draw thread (`_draw_inline`): the study keeps at most `jobs` threads busy.

    Spawned workers import numpy afresh under one BLAS thread each; forked
    ones keep the BLAS pool size the parent loaded numpy with, and `jobs`
    such pools oversubscribe the cores.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    with _one_blas_thread_env(), ProcessPoolExecutor(
            max_workers=jobs, mp_context=spawn,
            initializer=_draw_inline) as pool:
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


def run_rmse_experiment(case_name: str, methods, m_values, runs: int,
                        seed: int, jobs: int = 1) -> RmseTable:
    """Seeded replication study of each of `methods` on the benchmark case
    `case_name`: per-(method, m) relative RMSE, bias, CoV, eval budgets.

    Rows come per method in the given order, with m ascending. All runs go
    through one pool of `jobs` workers (inline when `jobs` is 1), and per-run
    substreams make parallel and serial execution produce identical
    statistics. A run that raised or is degenerate is excluded and counted
    in its row's `failures`, and its per-run `error` says which (the
    message, or "degenerate"); every row stays, with no statistics when no
    run is usable. Warnings raised in a run, in this process or in a worker,
    are issued again here, in run order. Before any run, an unknown case,
    fewer than two runs, no methods, no m values, a repeated method or m,
    `jobs` below 1, or a (method, m) configuration its estimator rejects
    raises ConfigError.
    """
    if case_name not in CASES:
        raise ConfigError(f"unknown case {case_name!r}")
    if runs < 2:
        raise ConfigError("need runs >= 2")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    methods = list(methods)
    m_values = sorted(int(m) for m in m_values)
    for what, values in (("methods", methods), ("m_values", m_values)):
        if not values:
            raise ConfigError(f"{what} must not be empty")
        if len(set(values)) != len(values):
            raise ConfigError(f"{what} must be distinct, got {values}")
    ref = CASES[case_name]().alpha_ref
    tasks = []
    for method in methods:
        for m in m_values:
            try:
                estimate = _estimator(method, m)
            except ConfigError as exc:
                raise ConfigError(f"method {method} at m = {m}: {exc}") from None
            tasks += [(case_name, method, m, estimate, per_run_seed(seed, case_name, method, m, r))
                      for r in range(runs)]
    if jobs > 1:
        with _worker_pool(jobs) as pool:
            results = list(pool.map(_study_run, tasks, chunksize=1))
    else:
        results = [_study_run(t) for t in tasks]
    for _, _, caught in results:
        for category, message in caught:
            warnings.warn(message, category, stacklevel=2)

    table = RmseTable()
    for start in range(0, len(tasks), runs):
        _, method, m, _, _ = tasks[start]
        block = [(res, wall_ms) for res, wall_ms, _ in results[start:start + runs]]
        good = [(res, wall_ms) for res, wall_ms in block
                if res.error is None and not res.degenerate]
        failures = runs - len(good)
        for r, (res, wall_ms) in enumerate(block):
            table.per_run.append(RunRow(
                method=method, case=case_name, m=m, run=r,
                alpha_hat=res.alpha_hat, delta_hat=res.delta_hat,
                n_total=res.n_total, n_reported=res.n_reported,
                n_init=res.n_initial, n_intermediate=res.n_intermediate,
                n_final=res.n_final,
                error=res.error or ("degenerate" if res.degenerate else None),
                wall_ms=wall_ms,
            ))
        if not good:
            table.rows.append(RmseRow(method=method, case=case_name, m=m, runs=0,
                                      failures=failures))
            continue
        est = np.array([res.alpha_hat for res, _ in good])
        walls = np.array([wall_ms for _, wall_ms in good])
        mean_est = float(est.mean())
        rel_rmse = float(np.sqrt(np.mean((est - ref) ** 2)) / ref)
        rel_abs_bias = float(abs(mean_est - ref) / ref)
        cov = float(est.std(ddof=1) / mean_est) if len(good) > 1 else None
        table.rows.append(RmseRow(
            method=method, case=case_name, m=m, runs=len(good), failures=failures,
            mean_est=mean_est, rel_rmse=rel_rmse, rel_abs_bias=rel_abs_bias, cov=cov,
            n_evals_mean=float(np.mean([res.n_reported for res, _ in good])),
            n_evals_init=float(np.mean([res.n_initial for res, _ in good])),
            n_evals_intermediate=float(np.mean([res.n_intermediate for res, _ in good])),
            n_evals_final=float(np.mean([res.n_final for res, _ in good])),
            wall_ms_median=float(np.median(walls)),
        ))
    return table


def _study_run(task) -> tuple[EstimationResult, float, list[tuple[type, str]]]:
    """One study run, in this process or a worker: the result, the wall time
    of the estimator call in ms, and the category and message of every
    warning the run raised. A run that raises gives an error result."""
    case_name, method, _, estimate, seed = task
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            problem = CASES[case_name]().problem
            t0 = time.perf_counter()
            res = estimate(problem, seed=seed)
            wall_ms = (time.perf_counter() - t0) * 1e3
        except Exception as exc:  # individual run failures are recorded, not fatal
            res = EstimationResult(method=method, alpha_hat=float("nan"), error=str(exc))
            wall_ms = float("nan")
    return res, wall_ms, [(w.category, str(w.message)) for w in caught]

