"""Bayesian subset simulation: GP-driven sequential design fused with a
sequential Monte Carlo sampler.

Each stage alternates an estimation phase and a sampling phase. The
estimation phase re-solves the adaptive threshold (the value at which the
estimated conditional probability equals p0), checks the adaptive stopping
rule (expected number of misclassified particles below eta * m * p0, with
eta tied to the estimator's own coefficient of variation at the final
stage), and otherwise evaluates the limit state at the point chosen by the
SUR criterion and refits the GP. The sampling phase is the standard
reweight / residual-resample / move transition with target proportional to
pdf * g_t under the stage-final model, whose g_t the move scores only where
the density step may accept, as in `ss`. The cloud of m equally weighted
particles is three arrays: the points, their log g_t and log pdf.

The final estimate is the product over stages of the mean coverage ratios,
with its coefficient of variation from the per-stage kappa recursion. The
result's `trace` has one dict per SUR evaluation: n, x_new, criterion, u_t
and stage.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import (
    ConfigError,
    EstimationResult,
    EvaluationLedger,
    Problem,
    StageRecord,
    log_sum_exp,
    substream,
)
from .design import maximin_lhs
from .gp import GpModel, fit_reml
from .smc import (DegenerateWeightsError, DrawStream, initial_log_steps, product_estimate,
                  residual_resample, reweight, rwmh_move, stage_record)
from . import sur
from .sur import _LOG_FLOOR, log_coverage_g, select_next_point

__all__ = [
    "BssConfig",
    "ThresholdSolverError",
    "solve_threshold",
    "misclass_sum",
    "run_bss",
]


N_MIN = 2  # SUR evaluations a stage makes before its stopping rule is checked
N0_PER_DIM = 5  # initial design points per input dimension: n0 = 5 d
MAX_STAGES = 50  # stages before a run ends with `error` set
MAX_TOTAL_EVALUATIONS = 2000  # limit-state evaluations before a run ends with `error` set
ETA_INTERMEDIATE = 0.5  # stopping-rule eta at intermediate stages
ETA_FINAL_FACTOR = 0.1  # eta at the final stage, per unit of the estimate's CoV
DESIGN_EPSILON = 1e-5  # the initial design's box: marginal quantiles eps, 1 - eps
DESIGN_CANDIDATES = 10_000  # Latin hypercubes drawn for the maximin initial design
REML_STARTS = 5  # L-BFGS-B starts of the first ReML fit
REML_REFIT_STARTS = 2  # and of each refit after an evaluation
_MAX_EXPANSIONS = 60  # bracket doublings before the threshold solve gives up


class ThresholdSolverError(RuntimeError):
    """The adaptive threshold equation could not be bracketed."""


@dataclass
class BssConfig:
    """m particles and the per-stage probability p0; every other constant
    of the algorithm is fixed at module level."""

    m: int
    p0: float = 0.1

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ConfigError("m must be >= 2")
        if not 0.0 < self.p0 < 1.0:
            raise ConfigError("p0 must be in (0, 1)")


def solve_threshold(model, mean: np.ndarray, sd: np.ndarray, log_g_prev: np.ndarray,
                    p0: float) -> float:
    """Solve (1/m) sum_j g(Y_j; u) / g_prev(Y_j) = p0 for u by bisection.

    `mean` and `sd` are the posterior at the m particles Y_j, and
    `log_g_prev` is log g_prev there, already floored at `_LOG_FLOOR`.

    The left-hand side is non-increasing in u, so we bisect on the strict
    predicate LHS(u) > p0 and return the upper bracket end: for continuous
    posteriors this is the root within 1e-12 of the value scale; in the
    indicator (zero-variance) limit it is the classical order-statistic
    threshold, where the equation holds on a plateau.

    The bisection defines the answer; a root search only spares it predicate
    evaluations. Once the bracket is found, `scipy.optimize.brentq` runs on
    log LHS(u) - log(p0 m) inside it, and every u it evaluates is recorded
    with its predicate outcome. The bisection then takes the same mids as
    without the record, and evaluates the predicate only where the record
    cannot decide it: a mid at least `width_tol` below a recorded True point
    is True, and one at least `width_tol` above a recorded False point is
    False. The margin keeps rounding noise in the summed left-hand side from
    flipping an inferred outcome, so the returned bits are the plain
    bisection's. Where a bracket end's value is not finite (sd = 0
    plateaus) the root search is skipped and the bisection evaluates every
    mid.

    The predicate sums in log space with `core.log_sum_exp`, which returns the
    same bits as `scipy.special.logsumexp` at a fraction of its per-call cost.
    """
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must be in (0, 1)")
    log_p0_m = math.log(p0) + math.log(len(mean))
    excess_at: dict[float, float] = {}  # u -> log LHS(u) - log(p0 m), each u evaluated

    def excess(u: float) -> float:
        if u not in excess_at:
            excess_at[u] = float(log_sum_exp(log_coverage_g(mean, sd, u) - log_g_prev)) - log_p0_m
        return excess_at[u]

    def lhs_gt(u: float) -> bool:
        # all-(-inf) terms give -inf, and NaN compares False; for finite
        # values, a - b > 0 exactly when a > b
        return excess(u) > 0.0

    scale = max(1.0, float(np.max(np.abs(model.design_values))))
    lo = float(np.min(mean - 6.0 * sd))
    hi = float(np.max(mean + 6.0 * sd))
    if not hi > lo:
        lo, hi = lo - max(1.0, abs(lo)), hi + max(1.0, abs(hi))
    k = 0
    while not lhs_gt(lo):
        lo, hi = lo - (hi - lo), lo
        k += 1
        if k > _MAX_EXPANSIONS:
            raise ThresholdSolverError("no sign change while expanding bracket downward")
    k = 0
    while lhs_gt(hi):
        lo, hi = hi, hi + (hi - lo)
        k += 1
        if k > _MAX_EXPANSIONS:
            raise ThresholdSolverError("no sign change while expanding bracket upward")
    width_tol = 1e-12 * scale
    if math.isfinite(excess(lo)) and math.isfinite(excess(hi)):
        brentq(excess, lo, hi, xtol=width_tol, disp=False)
    true_max = max((v for v, e in excess_at.items() if e > 0.0), default=-math.inf)
    false_min = min((v for v, e in excess_at.items() if not e > 0.0), default=math.inf)
    while hi - lo > width_tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if true_max - mid >= width_tol:
            gt = True
        elif mid - false_min >= width_tol:
            gt = False
        else:
            gt = lhs_gt(mid)
        if gt:
            lo = mid
        else:
            hi = mid
    return hi


def misclass_sum(log_tau: np.ndarray, log_g_prev: np.ndarray) -> float:
    """sum_j tau(Y_j) / g_prev(Y_j), the stopping-rule left-hand side: a stage
    may stop once this is at most eta * m * p0. `log_tau` is the pass's
    `sur.log_misclass_tau`, and `log_g_prev` is floored at `_LOG_FLOOR`."""
    log_terms = log_tau - log_g_prev
    terms = np.exp(np.clip(log_terms, _LOG_FLOOR, 700.0))
    terms = np.where(np.isneginf(log_terms), 0.0, terms)
    return float(terms.sum())


def _fit_model(X, y, prev_hyper, rng):
    """The kriging model of (X, y) on ReML hyperparameters, refit from `prev_hyper` if given."""
    n_starts = REML_STARTS if prev_hyper is None else REML_REFIT_STARTS
    hyper = fit_reml(X, y, n_starts=n_starts, rng=rng, init=prev_hyper)
    return GpModel(X, y, hyper)


def _require_finite(values: np.ndarray, points: np.ndarray) -> None:
    """Raise ValueError naming the first non-finite limit-state value and its point."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise ValueError(f"limit state returned {float(values[i])} at x = {points[i].tolist()}; "
                         "bss needs finite values")


def run_bss(problem: Problem, config: BssConfig, seed: int) -> EstimationResult:
    """Run Bayesian subset simulation; deterministic given the root seed.

    The surrogate is the ordinary-kriging model on ReML hyperparameters
    that `_fit_model` fits, and refits from the last hyperparameters after
    each SUR evaluation. A refit that raises LinAlgError or ValueError warns
    and keeps the previous hyperparameters, or failing that the previous
    model; any other exception propagates. A non-finite limit-state value, in the initial
    design or at a SUR point, raises ValueError before any fit sees it.

    Each estimation pass takes the posterior at the particles (predicted
    after each fit, or carried by the move into a stage's first pass),
    solves the threshold and checks the stopping rule, or else makes one SUR
    evaluation and refits; the rule and the search read the pass's one
    `sur.log_misclass_tau` array. The run returns the product of its
    recorded stage estimates: after the first stage that reaches u, or with
    `error` set once an evaluation is due with `MAX_TOTAL_EVALUATIONS` spent,
    the reweight raises `DegenerateWeightsError`, or `MAX_STAGES` stages end
    below u (with no move after the last). `n_final` counts the last stage's
    evaluations only if that stage reached u; a stage cut short counts as
    intermediate.
    """
    u = problem.threshold
    m = config.m
    p0 = config.p0
    ledger = EvaluationLedger()
    rng_design = substream(seed, "design")
    rng_init = substream(seed, "particle-init")
    rng_resample = substream(seed, "resample")
    rng_reml = substream(seed, "reml")

    # stage 0: initial design, first fit, particle cloud from the input law
    X = maximin_lhs(N0_PER_DIM * problem.dim, problem.input.quantile(DESIGN_EPSILON),
                    problem.input.quantile(1.0 - DESIGN_EPSILON), DESIGN_CANDIDATES, rng_design)
    y = ledger.evaluate(problem.limit_state, X, stage=0)
    _require_finite(y, X)
    model = _fit_model(X, y, None, rng_reml)

    # made after the design, whose candidate search can be the run's memory peak
    draws = DrawStream(substream(seed, "move"), m, problem.dim)
    try:
        pts = problem.input.sample(m, rng_init)
        log_g = np.zeros(m)  # g_0 = 1
        log_pdf = problem.input.log_density(pts)
        log_sigma = initial_log_steps(problem.input.sd)
        posterior = model.predict(pts)  # mean and variance at the particles

        stages: list[StageRecord] = []
        trace: list[dict] = []
        underflows = 0
        error: str | None = None
        for t in range(1, MAX_STAGES + 1):
            underflows += int(np.count_nonzero(log_g < _LOG_FLOOR))
            log_g_prev = np.maximum(log_g, _LOG_FLOOR)
            n_t = 0
            while True:
                mean_p, var_p = posterior
                sd_p = np.sqrt(var_p)
                u_cand = solve_threshold(model, mean_p, sd_p, log_g_prev, p0)
                is_final = u_cand >= u
                u_t = u if is_final else u_cand
                log_g_t = log_coverage_g(mean_p, sd_p, u_t)
                ratios = np.exp(np.clip(log_g_t - log_g_prev, None, 700.0))
                record = stage_record(t, u_t, ratios, stages)
                eta = ETA_FINAL_FACTOR * record.delta_hat if is_final else ETA_INTERMEDIATE
                log_tau = sur.log_misclass_tau(model, mean_p, sd_p, u_t)
                if n_t >= N_MIN and misclass_sum(log_tau, log_g_prev) <= eta * m * p0:
                    break
                if ledger.n_total >= MAX_TOTAL_EVALUATIONS:
                    error = f"max_total_evaluations={MAX_TOTAL_EVALUATIONS} exceeded"
                    break
                sel = select_next_point(model, pts, mean_p, sd_p, log_tau, log_g_prev, u_t)
                x_new = sel.x_new[None, :]
                y_new = ledger.evaluate(problem.limit_state, x_new, stage=t)
                _require_finite(y_new, x_new)
                trace.append({
                    "n": ledger.n_total,
                    "x_new": [float(v) for v in sel.x_new],
                    "criterion": sel.criterion,
                    "u_t": u_t,
                    "stage": t,
                })
                X = np.vstack([X, x_new])
                y = np.append(y, y_new)
                try:
                    model = _fit_model(X, y, model.hyper, rng_reml)
                except (np.linalg.LinAlgError, ValueError) as exc:
                    warnings.warn(f"bss refit failed, previous hyperparameters kept: {exc!r}",
                                  RuntimeWarning, stacklevel=2)
                    try:
                        model = GpModel(X, y, model.hyper)
                    except (np.linalg.LinAlgError, ValueError) as exc:
                        warnings.warn("bss refit on the previous hyperparameters failed, previous "
                                      f"model kept: {exc!r}", RuntimeWarning, stacklevel=2)
                posterior = model.predict(pts)
                n_t += 1

            # stage complete (or ended): record it with the last solved threshold
            record.n_evals = n_t
            stages.append(record)
            if error is not None or is_final:
                break
            if t == MAX_STAGES:  # no stage is left to use the moved cloud
                error = f"max_stages={MAX_STAGES} exceeded"
                break

            # sampling phase: reweight -> residual resample -> move
            try:
                weights = reweight(log_g_t, log_g_prev)
            except DegenerateWeightsError as exc:
                error = str(exc)
                break
            idx = residual_resample(weights, rng_resample)
            pts = pts[idx]

            def log_factor(Z, _u=u_t, _model=model):
                mu, v = _model.predict(Z)
                return log_coverage_g(mu, np.sqrt(v), _u), {"mean": mu, "var": v}

            # the move carries each particle's posterior under `model`, which
            # the next stage starts from; `predict` gives a row the same bits
            # in any batch, so these are the bits of `model.predict(pts)`
            pts, (log_pdf, log_g, aux), log_sigma, diag = rwmh_move(
                pts, problem.input.log_density, log_factor, log_sigma, draws,
                current=(log_pdf[idx], log_g_t[idx], {"mean": mean_p[idx], "var": var_p[idx]}))
            posterior = aux["mean"], aux["var"]
            stages[-1].acceptance = diag.intervals()
    finally:
        draws.close()

    alpha = product_estimate(s.p_hat for s in stages)
    # a stage cut short below u counts as intermediate
    n_final = stages[-1].n_evals if stages[-1].u_t == u else 0
    return EstimationResult(
        method="bss",
        alpha_hat=alpha,
        delta_hat=stages[-1].delta_hat,
        stages=stages,
        n_total=ledger.n_total,
        n_reported=float(ledger.n_total),
        n_initial=ledger.n_initial,
        n_intermediate=sum(s.n_evals for s in stages) - n_final,
        n_final=n_final,
        degenerate=alpha == 0.0,
        error=error,
        underflow_floors=underflows,
        trace=trace,
    )
