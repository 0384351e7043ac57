"""Baseline estimators: plain Monte Carlo and classical subset simulation
with adaptive thresholds.

Subset simulation runs the reweight/residual-resample/move scheme on the
indicator targets 1{f > u_t} * pdf. The target evaluates f at every
proposal and the input density only at those inside the level; the others
have log target -inf and are never accepted. Thresholds are the
(m - m0)-th order statistic of the current population's limit-state
values, so each intermediate conditional probability estimate equals
p0 = m0/m by construction, and the final estimate is (m_u / m) * p0^(T-1).

Both take an int root seed and draw from named substreams of it. Every
limit-state call goes through an `EvaluationLedger` (stage 0 sample plus S
proposals per particle per move), which gives `n_total`; the benchmarking
convention reports m + (T-1)(1-p0) m, i.e. one evaluation per particle per
stage, with the extra adaptive-MCMC evaluations left out.
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
from .smc import initial_log_steps, residual_resample, rwmh_move

__all__ = [
    "SubsetSimConfig",
    "monte_carlo_estimate",
    "run_subset_simulation",
    "ss_relative_variance_approx",
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

    A run whose `MAX_STAGES` stages all end below u returns p0^MAX_STAGES,
    the product of its recorded stage estimates, with `error` set; it makes
    no move after its last stage."""
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
        order = np.sort(vals)
        u_t0 = float(order[m - m0 - 1])  # (m - m0)-th order statistic, 1-indexed
        if u_t0 > u:
            m_u = int(np.count_nonzero(vals > u))
            alpha = (m_u / m) * p0 ** (t - 1)
            stages.append(StageRecord(t=t, u_t=u, n_evals=0, p_hat=m_u / m))
            break
        stages.append(StageRecord(t=t, u_t=u_t0, n_evals=m, p_hat=p0))
        if t == MAX_STAGES:  # the threshold may be unreachable or the kernel stuck
            error = f"max_stages={MAX_STAGES} exceeded"
            alpha = p0 ** MAX_STAGES
            break
        survivors = vals > u_t0
        m_t = int(np.count_nonzero(survivors))
        # reweight to the indicator of the new level, then resample
        w = survivors.astype(float) / m_t
        idx = residual_resample(w, rng_resample)
        pts = pts[idx]
        vals = vals[idx]
        log_pdf = log_pdf[idx]

        def log_target(X, _u=u_t0, _t=t):
            # the density only inside the level: outside it the target is 0
            fv = ledger.evaluate(problem.limit_state, X, stage=_t)
            inside = np.flatnonzero(fv > _u)
            logp = np.full(len(fv), -np.inf)
            logp[inside] = dist.log_density(X.take(inside, axis=0))
            return logp, {"f": fv}

        # every resampled particle is inside the level, so its log target
        # is its log pdf
        pts, (log_pdf, aux), log_sigma, diag = rwmh_move(pts, log_target, log_sigma, rng_move,
                                                         current=(log_pdf, {"f": vals}))
        vals = aux["f"]
        stages[-1].acceptance = diag.acceptance

    n_moves = len(stages) - 1  # every stage but the last moves the cloud
    n_reported = m + n_moves * (1.0 - p0) * m
    delta = math.sqrt(ss_relative_variance_approx(alpha, p0, m)) if 0.0 < alpha < 1.0 else None
    return EstimationResult(
        method="ss",
        alpha_hat=alpha,
        delta_hat=delta,
        stages=stages,
        n_total=ledger.n_total,
        n_reported=n_reported,
        n_initial=m,
        n_intermediate=int(round(n_moves * (1.0 - p0) * m)),
        n_final=0,
        degenerate=alpha == 0.0,
        error=error,
    )


def ss_relative_variance_approx(alpha: float, p0: float, m: int) -> float:
    """Asymptotic Var(alpha_SS / alpha) when all conditional probabilities
    equal p0: (T/m)(1 - p0)/p0 with T = ceil(log alpha / log p0)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must be in (0, 1)")
    T = max(1, math.ceil(math.log(alpha) / math.log(p0) - 1e-12))
    return (T / m) * (1.0 - p0) / p0
