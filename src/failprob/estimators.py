"""Baseline estimators: plain Monte Carlo and classical subset simulation
with adaptive thresholds.

Subset simulation runs the reweight/residual-resample/move scheme on the
indicator targets 1{f > u_t} * pdf: the move's density is the input law and
its factor the level's indicator, so the screened move evaluates f only at
proposals that pass the density step (Au & Beck's modified Metropolis), and
at the few others it scores to keep its step adaptation exact. Thresholds
are the (m - m0)-th order statistic of the current population's
limit-state values (NaN ranks below every level). Stages are recorded as in
`bss`, the level's indicator being the coverage ratio, so the estimate is
the product of the fractions above each level, with the kappa-recursion CoV.

Both take an int root seed and draw from named substreams of it. Every
limit-state call goes through an `EvaluationLedger` (the stage 0 sample
plus each move's evaluations, which its stage record holds as `n_evals`),
which gives `n_total`; the benchmarking convention reports
m + (T-1)(1-p0) m, i.e. one evaluation per particle per stage, with the
extra adaptive-MCMC evaluations left out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    EstimationResult,
    EvaluationLedger,
    Problem,
    StageRecord,
    substream,
)
from .smc import initial_log_steps, product_estimate, residual_resample, rwmh_move, stage_record

__all__ = [
    "SubsetSimConfig",
    "monte_carlo_estimate",
    "run_subset_simulation",
]

MAX_STAGES = 50  # stages before a run ends with `error` set


@dataclass
class SubsetSimConfig:
    """m particles, of which m0 = p0 m survive each intermediate level."""

    m: int
    m0: int

    def __post_init__(self) -> None:
        if not 1 <= self.m0 < self.m:
            raise ConfigError("need 1 <= m0 < m")

    @property
    def p0(self) -> float:
        return self.m0 / self.m


_MC_BATCH = 1_000_000  # draws per limit-state call: bounds memory at large m


def monte_carlo_estimate(problem: Problem, m: int, seed: int) -> EstimationResult:
    """Plain Monte Carlo: fraction of failures among m i.i.d. draws from the
    "mc" substream of the root seed, in batches of `_MC_BATCH`.

    Samples with non-finite limit-state values are rejected with a
    diagnostic count (they do not enter numerator or denominator).
    """
    if m < 1:
        raise ConfigError("m must be >= 1")
    rng = substream(seed, "mc")
    ledger = EvaluationLedger()
    failures = 0
    rejected = 0
    done = 0
    while done < m:
        k = min(_MC_BATCH, m - done)
        X = problem.input.sample(k, rng)
        vals = ledger.evaluate(problem.limit_state, X, stage=0)
        finite = np.isfinite(vals)
        rejected += int(k - finite.sum())
        failures += int(np.count_nonzero(vals[finite] > problem.threshold))
        done += k
    n_eff = m - rejected
    alpha = failures / n_eff if n_eff > 0 else 0.0
    std_err = math.sqrt(alpha * (1.0 - alpha) / n_eff) if n_eff > 0 else 0.0
    degenerate = failures == 0 or failures == n_eff
    return EstimationResult(
        method="mc",
        alpha_hat=alpha,
        delta_hat=(std_err / alpha) if alpha > 0 else None,
        std_err=std_err,
        stages=[],
        n_total=ledger.n_total,
        n_reported=float(m),
        n_initial=m,
        degenerate=degenerate,
        error=None if rejected == 0 else f"{rejected} samples rejected (non-finite value)",
    )


def run_subset_simulation(problem: Problem, config: SubsetSimConfig, seed: int) -> EstimationResult:
    """Subset simulation with adaptive thresholds (order-statistic levels).

    It returns the product of its recorded stage estimates once the order
    statistic passes u, or with `error` set once a level below u keeps no
    particle or `MAX_STAGES` stages end below u; no move follows the last."""
    # stream names shared with the Bayesian variant: with a perfect surrogate
    # both algorithms consume identical draws and produce identical trajectories
    rng_init = substream(seed, "particle-init")
    rng_resample = substream(seed, "resample")
    rng_move = substream(seed, "move")
    m, m0 = config.m, config.m0
    p0 = config.p0
    u = problem.threshold
    dist = problem.input
    ledger = EvaluationLedger()

    pts = dist.sample(m, rng_init)
    vals = ledger.evaluate(problem.limit_state, pts, stage=0)
    log_pdf = dist.log_density(pts)
    log_sigma = initial_log_steps(dist.sd)

    stages: list[StageRecord] = []
    error: str | None = None
    for t in range(1, MAX_STAGES + 1):
        order = np.sort(np.where(np.isnan(vals), -np.inf, vals))  # NaN lies in no level
        is_final = order[m - m0 - 1] > u  # the (m - m0)-th order statistic, 1-indexed
        u_t = u if is_final else float(order[m - m0 - 1])
        survivors = vals > u_t
        ratios = survivors.astype(float)
        stages.append(stage_record(t, u_t, ratios, stages))
        if is_final:
            break
        if t == MAX_STAGES:  # the threshold may be unreachable or the kernel stuck
            error = f"max_stages={MAX_STAGES} exceeded"
            break
        m_t = int(np.count_nonzero(survivors))
        if m_t == 0:
            error = f"no particle lies above the level u_t = {u_t!r}"
            break
        # reweight to the indicator of the new level, then resample
        idx = residual_resample(ratios / m_t, rng_resample)
        pts, vals, log_pdf = pts[idx], vals[idx], log_pdf[idx]

        def log_factor(X, _u=u_t, _t=t):
            # the level's indicator: f is evaluated only where the move asks
            fv = ledger.evaluate(problem.limit_state, X, stage=_t)
            return np.where(fv > _u, 0.0, -np.inf), {"f": fv}

        # every resampled particle is inside the level, so its log factor is 0
        n_before = ledger.n_total
        pts, (log_pdf, _, aux), log_sigma, diag = rwmh_move(
            pts, dist.log_density, log_factor, log_sigma, rng_move,
            current=(log_pdf, np.zeros(m), {"f": vals}), screen=True,
        )
        vals = aux["f"]
        stages[-1].n_evals = ledger.n_total - n_before
        stages[-1].acceptance = diag.intervals()

    alpha = product_estimate(s.p_hat for s in stages)
    n_moves = len(stages) - 1  # every stage but the last moves the cloud
    n_reported = m + n_moves * (1.0 - p0) * m
    return EstimationResult(
        method="ss",
        alpha_hat=alpha,
        delta_hat=stages[-1].delta_hat,
        stages=stages,
        n_total=ledger.n_total,
        n_reported=n_reported,
        n_initial=m,
        n_intermediate=int(round(n_moves * (1.0 - p0) * m)),
        n_final=0,
        degenerate=alpha == 0.0,
        error=error,
    )
