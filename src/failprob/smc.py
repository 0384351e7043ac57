"""Sequential Monte Carlo transitions: reweight, residual resampling, and
the adaptive Gaussian random-walk Metropolis move.

The move kernel runs `SWEEPS` sweeps over the whole population. Each
sweep proposes a joint d-dimensional Gaussian perturbation per particle
with per-coordinate step sizes, accepts by the Metropolis ratio,
and then adapts every coordinate's log step by +-delta/s (s the within-call
sweep index) according to whether the population-average acceptance
probability exceeds the target. The drivers carry the log steps from one
move to the next, so step sizes persist across stages; the within-stage
adaptation index restarts at 1.

A sweep's random numbers do not depend on the particles, so the move draws
them one sweep ahead on the kernel pool (`core._kernel_submit`) while the
current sweep evaluates its target. The generator gives the same numbers in
the same order at any thread count; at one kernel thread (as in `--jobs`
workers) they are drawn inline.

A move allocates its sweep arrays once per call: two alternating draw
buffers, in which the proposals are formed in place, and the acceptance
probabilities and accept mask, computed in place. Accepted rows are copied
through one index array, so a sweep allocates only that index and the
accepted rows it gathers from the target's output.
"""

from __future__ import annotations

import math
from concurrent.futures import wait
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import _kernel_submit, log_sum_exp

__all__ = [
    "DegenerateWeightsError",
    "reweight",
    "residual_resample",
    "initial_log_steps",
    "MoveDiagnostics",
    "rwmh_move",
]


TARGET_ACCEPTANCE = 0.30  # the target of the step adaptation
LOG_STEP_DELTA = math.log(10.0)  # delta: sweep s moves each log step by +-delta/s
INIT_SCALE = 2.0  # initial steps INIT_SCALE / sqrt(d) times the marginal sds
SWEEPS = 10  # sweeps per move


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


def initial_log_steps(marginal_sds: np.ndarray) -> np.ndarray:
    """Per-coordinate log step sizes of the first move."""
    sds = np.atleast_1d(np.asarray(marginal_sds, dtype=float))
    return np.log(INIT_SCALE / math.sqrt(len(sds)) * sds)


@dataclass
class MoveDiagnostics:
    """Population-average acceptance probability and step sizes per sweep."""

    acceptance: list[float] = field(default_factory=list)
    step_log_sigma: list[np.ndarray] = field(default_factory=list)


def rwmh_move(points: np.ndarray, log_target, log_sigma: np.ndarray,
              rng: np.random.Generator, current):
    """Run S = `SWEEPS` adaptive RWMH sweeps over a particle population.

    `log_target` maps a (k, d) array to `(logp, aux)` where `logp` is the
    (k,) log target density and `aux` a dict of per-point arrays carried
    through accept/reject (e.g. cached limit-state values). `current` is
    `(logp, aux)` at the starting points, which the drivers already hold;
    a non-finite start `logp` raises ValueError before anything is drawn.
    A proposal at log target -inf has acceptance exp(-inf - logp) = 0.

    Sweep s takes `rng.standard_normal((m, d))` and then `rng.random(m)`,
    and nothing else: `rng` must not be used elsewhere while the move runs.
    The pair for sweep s + 1 is drawn on the kernel pool while sweep s
    evaluates `log_target`, so results and the generator's final state are
    the same bits at any thread count, and nothing is drawn beyond sweep S.
    If `log_target` raises, the pending draw is waited for before the
    exception propagates, and the generator is then up to one sweep ahead
    of where a serial move would have left it.

    The draws fill two buffers allocated once per call, and sweep s forms
    its proposals in place in the buffer it read, which the draw for sweep
    s + 2 refills while the target runs on sweep s + 1. So `log_target`
    must not rely on its argument after it returns: returned arrays may be
    views of it, since accepted rows are copied out before the refill, but
    it must keep no reference to read on a later call.

    `log_sigma` holds the per-coordinate log step sizes the move starts from.
    Returns (moved points, final (logp, aux), adapted log steps, diagnostics).
    """
    pts = np.array(np.atleast_2d(np.asarray(points, dtype=float)))
    m, d = pts.shape
    logp = np.array(current[0], dtype=float)
    aux = {k: np.array(v) for k, v in current[1].items()}
    if np.any(~np.isfinite(logp)):
        raise ValueError("rwmh_move: the current log target must be finite")
    buffers = [(np.empty((m, d)), np.empty(m)) for _ in range(2)]  # sweep s reads [s % 2]

    def draw(z, u):
        rng.standard_normal(out=z)
        rng.random(out=u)

    pending = _kernel_submit(partial(draw, *buffers[1]))
    try:
        accept_prob = np.empty(m)
        acc = np.empty(m, dtype=bool)
        diag = MoveDiagnostics()
        for s in range(1, SWEEPS + 1):
            proposal, u = buffers[s % 2]
            if pending is None:
                draw(proposal, u)
            else:
                pending.result()
            pending = (_kernel_submit(partial(draw, *buffers[(s + 1) % 2]))
                       if s < SWEEPS else None)
            proposal *= np.exp(log_sigma)  # pts + step * z, formed in place
            proposal += pts
            logp_prop, aux_prop = log_target(proposal)
            logp_prop = np.asarray(logp_prop, dtype=float)
            np.subtract(logp_prop, logp, out=accept_prob)
            with np.errstate(over="ignore"):
                np.exp(accept_prob, out=accept_prob)
            np.minimum(accept_prob, 1.0, out=accept_prob)
            np.less(u, accept_prob, out=acc)
            idx = np.flatnonzero(acc)
            pts[idx] = proposal.take(idx, axis=0)
            logp[idx] = logp_prop.take(idx)
            for key in aux:
                aux[key][idx] = np.asarray(aux_prop[key]).take(idx, axis=0)
            abar = float(accept_prob.mean())
            diag.acceptance.append(abar)
            delta = LOG_STEP_DELTA / s
            log_sigma = log_sigma + (delta if abar > TARGET_ACCEPTANCE else -delta)
            diag.step_log_sigma.append(log_sigma.copy())
    finally:
        if pending is not None:  # only when raising: let no pool thread hold rng
            wait((pending,))
    return pts, (logp, aux), log_sigma, diag
