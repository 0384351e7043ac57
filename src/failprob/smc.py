"""Sequential Monte Carlo transitions: reweight, residual resampling, and
the adaptive Gaussian random-walk Metropolis move.

The move kernel runs a fixed number of sweeps over the whole population.
Each sweep proposes a joint d-dimensional Gaussian perturbation per
particle with per-coordinate step sizes, accepts by the Metropolis ratio,
and then adapts every coordinate's log step by +-delta/s (s the within-call
sweep index) according to whether the population-average acceptance
probability exceeds the target. Step sizes persist across stages; the
within-stage adaptation index restarts at 1.

A sweep's random numbers do not depend on the particles, so the move draws
them one sweep ahead on the kernel pool (`core._kernel_submit`) while the
current sweep evaluates its target. The generator gives the same numbers in
the same order at any thread count; at one kernel thread (as in `--jobs`
workers) they are drawn inline.
"""

from __future__ import annotations

import math
from concurrent.futures import wait
from dataclasses import dataclass, field, replace

import numpy as np

from .core import _kernel_submit, log_sum_exp

__all__ = [
    "DegenerateWeightsError",
    "reweight",
    "residual_resample",
    "RwmhState",
    "MoveDiagnostics",
    "rwmh_move",
]


TARGET_ACCEPTANCE = 0.30  # the target of the step adaptation
LOG_STEP_DELTA = math.log(10.0)  # delta: sweep s moves each log step by +-delta/s
INIT_SCALE = 2.0  # initial steps INIT_SCALE / sqrt(d) times the marginal sds


class DegenerateWeightsError(RuntimeError):
    """All reweighted particles got zero weight: the new level is unreachable."""


def reweight(log_g_new: np.ndarray, log_g_old: np.ndarray) -> np.ndarray:
    """Normalized weights of m equally weighted particles moved from target
    g_old to target g_new: w_j proportional to g_new(x_j) / g_old(x_j)."""
    log_g_new = np.asarray(log_g_new, dtype=float)
    log_g_old = np.asarray(log_g_old, dtype=float)
    if np.any(~np.isfinite(log_g_old)):
        raise ValueError("reweight: log_g_old must be finite at every particle")
    lw = -math.log(log_g_new.shape[0]) + log_g_new - log_g_old
    norm = log_sum_exp(lw)
    if not np.isfinite(norm):
        raise DegenerateWeightsError(
            "all reweighted particles have zero weight; "
            "the threshold step chose an unreachable level"
        )
    return np.exp(lw - norm)


def residual_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Residual resampling: floor(m w_j) deterministic copies of particle j,
    remaining slots multinomial from the residual weights. Returns m indices
    (sorted by particle index); the implied new weights are uniform 1/m.
    """
    w = np.asarray(weights, dtype=float)
    m = w.shape[0]
    if w.min() < 0.0 or abs(w.sum() - 1.0) > 1e-8:
        raise ValueError("weights must be normalized and non-negative")
    counts = np.floor(m * w).astype(int)
    r = m - int(counts.sum())
    if r > 0:
        residual = m * w - counts
        residual /= residual.sum()
        extra = rng.choice(m, size=r, p=residual)
        counts += np.bincount(extra, minlength=m)
    return np.repeat(np.arange(m), counts)


@dataclass(frozen=True)
class RwmhState:
    """Per-coordinate log step sizes, which persist across stages, and the
    number of sweeps each move runs."""

    log_sigma: np.ndarray
    sweeps: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "log_sigma", np.atleast_1d(np.asarray(self.log_sigma, dtype=float)))
        if np.any(~np.isfinite(self.log_sigma)):
            raise ValueError("log step sizes must be finite")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")

    @classmethod
    def initial(cls, marginal_sds: np.ndarray) -> "RwmhState":
        sds = np.atleast_1d(np.asarray(marginal_sds, dtype=float))
        return cls(log_sigma=np.log(INIT_SCALE / math.sqrt(len(sds)) * sds))


@dataclass
class MoveDiagnostics:
    """Population-average acceptance probability and step sizes per sweep."""

    acceptance: list[float] = field(default_factory=list)
    step_log_sigma: list[np.ndarray] = field(default_factory=list)


def rwmh_move(points: np.ndarray, log_target, state: RwmhState,
              rng: np.random.Generator, current=None, adapt: bool = True):
    """Run S adaptive RWMH sweeps over a particle population.

    `log_target` maps a (k, d) array to `(logp, aux)` where `logp` is the
    (k,) log target density and `aux` a dict of per-point arrays carried
    through accept/reject (e.g. cached limit-state values). `current`
    optionally provides `(logp, aux)` for the starting points so drivers
    with cached values avoid one target evaluation.

    Sweep s takes `rng.standard_normal((m, d))` and then `rng.random(m)`,
    and nothing else: `rng` must not be used elsewhere while the move runs.
    The pair for sweep s + 1 is drawn on the kernel pool while sweep s
    evaluates `log_target`, so results and the generator's final state are
    the same bits at any thread count, and nothing is drawn beyond sweep S.
    If `log_target` raises, the pending draw is waited for before the
    exception propagates, and the generator is then up to one sweep ahead
    of where a serial move would have left it.

    Returns (moved points, final (logp, aux), new state, diagnostics).
    """
    pts = np.array(np.atleast_2d(np.asarray(points, dtype=float)))
    m, d = pts.shape

    def draw():
        return rng.standard_normal((m, d)), rng.random(m)

    pending = _kernel_submit(draw)
    try:
        logp, aux = log_target(pts) if current is None else current
        logp = np.array(logp, dtype=float)
        aux = {k: np.array(v) for k, v in aux.items()}
        if np.any(~np.isfinite(logp)):
            raise ValueError("rwmh_move: log_target must be finite at the current particles")

        log_sigma = state.log_sigma.copy()
        diag = MoveDiagnostics()
        for s in range(1, state.sweeps + 1):
            proposal, u = draw() if pending is None else pending.result()
            pending = _kernel_submit(draw) if s < state.sweeps else None
            proposal *= np.exp(log_sigma)  # pts + step * z, formed in place
            proposal += pts
            logp_prop, aux_prop = log_target(proposal)
            logp_prop = np.asarray(logp_prop, dtype=float)
            with np.errstate(over="ignore"):
                accept_prob = np.minimum(1.0, np.exp(logp_prop - logp))
            accept_prob = np.where(np.isneginf(logp_prop), 0.0, accept_prob)
            acc = u < accept_prob
            pts[acc] = proposal[acc]
            logp[acc] = logp_prop[acc]
            for key in aux:
                aux[key][acc] = np.asarray(aux_prop[key])[acc]
            abar = float(accept_prob.mean())
            diag.acceptance.append(abar)
            if adapt:
                delta = LOG_STEP_DELTA / s
                log_sigma = log_sigma + (delta if abar > TARGET_ACCEPTANCE else -delta)
            diag.step_log_sigma.append(log_sigma.copy())
    finally:
        if pending is not None:  # only when raising: let no pool thread hold rng
            wait((pending,))
    new_state = replace(state, log_sigma=log_sigma)
    return pts, (logp, aux), new_state, diag
