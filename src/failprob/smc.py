"""Sequential Monte Carlo transitions: reweight, residual resampling, and
the adaptive Gaussian random-walk Metropolis move; and the estimate `ss` and `bss` share.

The move kernel runs `SWEEPS` sweeps over the whole population. Each
sweep proposes a joint d-dimensional Gaussian perturbation per particle
with per-coordinate step sizes, accepts by the Metropolis ratio,
and then adapts every coordinate's log step by +-delta/s (s the within-call
sweep index) according to whether the population-average acceptance
probability exceeds the target. The drivers carry the log steps from one
move to the next, so step sizes persist across stages; the within-stage
adaptation index restarts at 1.

The target is the input density times a factor of at most 1, given as two
log functions. A proposal z from x whose uniform draw is at least
min(1, pdf(z) / target(x)) is rejected whatever the factor is, so the move
(of `ss` and `bss` alike) calls the factor only on the other proposals:
delayed acceptance (Christen & Fox 2005), as in Au & Beck's (2001) modified
Metropolis. It runs each sweep in row blocks of `_BLOCK_ROWS`, whose
temporaries stay in cache. The proposals it did not score bound the sweep's
mean acceptance probability to an interval; only while that interval holds
`TARGET_ACCEPTANCE` does the move score them, highest bound first, and each
time only as many as could carry the interval past the target, so it scores
the rows a one-at-a-time scan would. Every accept decision and step size is
the one of a move that scores them all.

A sweep's random numbers do not depend on the particles, so one
`DrawStream` per run supplies them: it owns the two buffer pairs the move
reads, one (m, d) and one (m,) each, and keeps the next sweep's draw in
flight on a thread of its own across sweep, move and stage boundaries, so
even a move's first sweep finds its draw made while the driver did its
stage bookkeeping. With `DRAW_AHEAD` off (as in `--jobs` workers, or with
one usable CPU) the stream starts no thread and draws inline at the same
points, so the numbers and their order are the same bits either way. A run
draws one sweep it never uses, so its generator ends one sweep ahead of
the draws it consumed.

A move allocates the proposals' log densities and acceptance probabilities
once per call and forms each sweep's proposals in place in the draw buffer
it read. Accepted rows are copied through one index array per block.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import StageRecord, log_sum_exp

__all__ = [
    "DegenerateWeightsError",
    "reweight",
    "residual_resample",
    "kappa_hat",
    "cov_recursion",
    "stage_record",
    "product_estimate",
    "initial_log_steps",
    "MoveDiagnostics",
    "DrawStream",
    "rwmh_move",
]


TARGET_ACCEPTANCE = 0.30  # the target of the step adaptation
LOG_STEP_DELTA = math.log(10.0)  # delta: sweep s moves each log step by +-delta/s
INIT_SCALE = 2.0  # initial steps INIT_SCALE / sqrt(d) times the marginal sds
SWEEPS = 10  # sweeps per move
_BLOCK_ROWS = 8192  # rows per block of a sweep, a multiple of 64
_SCREEN_MARGIN = 1e-9  # how far the acceptance interval must clear the target
try:  # each DrawStream draws ahead on a thread of its own where 2+ CPUs are usable
    DRAW_AHEAD = len(os.sched_getaffinity(0)) > 1
except AttributeError:  # platforms without sched_getaffinity
    DRAW_AHEAD = (os.cpu_count() or 1) > 1


class DegenerateWeightsError(RuntimeError):
    """All reweighted particles got zero weight: the new level is unreachable."""


def reweight(log_g_new: np.ndarray, log_g_old: np.ndarray) -> np.ndarray:
    """Normalized weights of m equally weighted particles moved from target
    g_old to target g_new: w_j proportional to g_new(x_j) / g_old(x_j).
    log g_new = -inf (zero coverage) is allowed; NaN and +inf are not."""
    log_g_new = np.asarray(log_g_new, dtype=float)
    log_g_old = np.asarray(log_g_old, dtype=float)
    if np.any(~np.isfinite(log_g_old)):
        raise ValueError("reweight: log_g_old must be finite at every particle")
    if not np.all(log_g_new < np.inf):  # False for NaN as for +inf
        raise ValueError("reweight: log_g_new holds NaN or +inf")
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
    if not (w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-8):  # NaN fails both
        raise ValueError("weights must be normalized and non-negative")
    counts = np.floor(m * w).astype(int)
    r = m - int(counts.sum())
    if r > 0:
        residual = m * w - counts
        residual /= residual.sum()
        extra = rng.choice(m, size=r, p=residual)
        counts += np.bincount(extra, minlength=m)
    return np.repeat(np.arange(m), counts)


def kappa_hat(ratios: np.ndarray, p_hat: float) -> float:
    """Per-stage relative variance term: mean((r - p_hat)^2) / p_hat^2."""
    if not p_hat > 0.0:
        raise ValueError("degenerate stage: p_hat must be positive")
    r = np.asarray(ratios, dtype=float)
    return float(np.mean((r - p_hat) ** 2) / (p_hat * p_hat))


def cov_recursion(kappas, m: int) -> np.ndarray:
    """Coefficient of variation per stage from
    delta^2_t = kappa_t/m + (1 + kappa_t/m) * delta^2_{t-1}, delta^2_0 = 0."""
    delta2 = 0.0
    out = []
    for k in kappas:
        k = float(k)
        if k < 0.0:
            raise ValueError("kappa values must be non-negative")
        delta2 = k / m + (1.0 + k / m) * delta2
        out.append(math.sqrt(delta2))
    return np.array(out)


def stage_record(t: int, u_t: float, ratios: np.ndarray, stages) -> StageRecord:
    """The record of stage t at level u_t, from the coverage ratios
    g_t / g_{t-1} at its m particles (in `ss`, the level's indicator) and the
    records of the stages before it: `p_hat` is the ratios' mean, `kappa_hat`
    0 where that is 0, `delta_hat` the recursion's value, `n_evals` 0."""
    p_hat = float(ratios.mean())
    kap = kappa_hat(ratios, p_hat) if p_hat > 0.0 else 0.0
    delta = float(cov_recursion([s.kappa_hat for s in stages] + [kap], len(ratios))[-1])
    return StageRecord(t=t, u_t=u_t, n_evals=0, p_hat=p_hat, kappa_hat=kap, delta_hat=delta)


def product_estimate(p_hats) -> float:
    """The product of the stages' p_hat, as the exp of their logs summed in
    stage order (the estimate's bits depend on that order); 0 if any is 0."""
    log_alpha = 0.0
    for p in p_hats:
        log_alpha += math.log(p) if p > 0.0 else -math.inf
    return math.exp(log_alpha) if math.isfinite(log_alpha) else 0.0


def initial_log_steps(marginal_sds: np.ndarray) -> np.ndarray:
    """Per-coordinate log step sizes of the first move."""
    sds = np.atleast_1d(np.asarray(marginal_sds, dtype=float))
    return np.log(INIT_SCALE / math.sqrt(len(sds)) * sds)


@dataclass
class MoveDiagnostics:
    """Per sweep: the interval [lo, hi] that holds the population-average
    acceptance probability, and the log step sizes after the adaptation.

    `acceptance` holds lo and `acceptance_hi` holds hi; they are equal, and
    that average exactly, where the move scored every proposal of the sweep.
    """

    acceptance: list[float] = field(default_factory=list)
    acceptance_hi: list[float] = field(default_factory=list)
    step_log_sigma: list[np.ndarray] = field(default_factory=list)

    def intervals(self) -> list[list[float]]:
        """[lo, hi] per sweep."""
        return [[lo, hi] for lo, hi in zip(self.acceptance, self.acceptance_hi)]


class DrawStream:
    """A run's random numbers for every move sweep, one sweep ahead.

    Sweep by sweep, the stream takes `rng.standard_normal((m, d))` and then
    `rng.random(m)`, and nothing else: `rng` must not be used elsewhere
    until `close()` returns. It owns two buffer pairs and, when
    `DRAW_AHEAD` is on as it is built, one `failprob-draw` thread, which
    keeps the next sweep's draw in flight from construction to `close()`,
    across moves and stages; with it off there is no thread and each draw
    is made inline at the point where it would be submitted. So the
    numbers, their order and the generator's state after `close()` (one
    sweep ahead of the draws taken) are the same bits either way.

    The driver that creates a stream closes it in a `finally`, so that its
    thread has stopped, and no longer holds `rng`, once the run returns or
    raises.
    """

    def __init__(self, rng: np.random.Generator, m: int, d: int) -> None:
        self._rng = rng
        self._buffers = [(np.empty((m, d)), np.empty(m)) for _ in range(2)]
        self._next = 0  # the buffer pair that holds, or receives, the next sweep
        self._pending = self._thread = None
        if DRAW_AHEAD:
            # imported here: a process that draws inline keeps ~0.2 MB
            from concurrent.futures import ThreadPoolExecutor

            self._thread = ThreadPoolExecutor(1, thread_name_prefix="failprob-draw")
        self._fill(0)

    @property
    def shape(self) -> tuple[int, int]:
        """(m, d): the shape of the particle clouds the stream serves."""
        return self._buffers[0][0].shape

    def _draw(self, z: np.ndarray, u: np.ndarray) -> None:
        self._rng.standard_normal(out=z)
        self._rng.random(out=u)

    def _fill(self, k: int) -> None:
        if self._thread is None:  # not drawing ahead: draw here
            self._draw(*self._buffers[k])
        else:
            self._pending = self._thread.submit(self._draw, *self._buffers[k])

    def _wait(self) -> None:
        pending, self._pending = self._pending, None
        if pending is not None:
            pending.result()

    def take(self) -> tuple[np.ndarray, np.ndarray]:
        """The next sweep's (z, u); the draw of the sweep after it then
        starts into the other pair. The next `take()` refills the pair
        returned, so a caller may write into it until then."""
        self._wait()
        k, self._next = self._next, 1 - self._next
        self._fill(self._next)
        return self._buffers[k]

    def close(self) -> None:
        """Wait for the draw in flight, then stop the stream's thread, also
        when that draw raised; the stream takes nothing after this."""
        try:
            self._wait()
        finally:
            if self._thread is not None:
                self._thread.shutdown()


def rwmh_move(points: np.ndarray, log_density, log_factor, log_sigma: np.ndarray,
              draws: DrawStream, current):
    """Run S = `SWEEPS` adaptive RWMH sweeps over a particle population.

    The log target is `log_density(X) + log_factor(X)[0]`. `log_density`
    maps a (k, d) array to its (k,) log input density. `log_factor` maps a
    (k, d) array to `(log_f, aux)`: `log_f` is the (k,) log factor, at most
    0, and `aux` a dict of per-point arrays carried through accept/reject
    (e.g. cached limit-state values). `current` is `(log_pdf, log_f, aux)`
    at the starting points, which the drivers already hold; a non-finite
    start log target raises ValueError before any draw is taken. A proposal
    at log target -inf has acceptance exp(-inf - logp) = 0.

    The factor is called, block by block, only on proposals whose uniform
    draw is below min(1, exp(log_pdf(z) - logp(x))), the bound on their
    acceptance probability, and then on unscored proposals in descending
    bound order, each call on the shortest run of them whose bounds could
    carry the interval of the sweep's mean acceptance probability past the
    nearer of its edges, until that interval lies `_SCREEN_MARGIN` clear of
    `TARGET_ACCEPTANCE`, or until all are scored. Accept decisions and step
    sizes are those of a move that scores every proposal on the same draws,
    as long as exp is monotone and both functions give a row the same bits
    whichever rows share the call; for a factor of 0 or -inf they are exact.

    Sweep s takes one `draws.take()`: its normals z, from which it forms
    the proposals x + exp(log_sigma) z in place, and its uniforms. The
    stream's shape must be the population's. The buffer a sweep reads is
    refilled while the next sweep runs, so neither function may rely on its
    argument after it returns: returned arrays may be views of it, since
    accepted rows are copied out before the refill, but it must keep no
    reference to read on a later call. If the target raises, the stream is
    left as it is, and its owner's `close()` waits for the draw in flight
    and stops the stream's thread.

    `log_sigma` holds the per-coordinate log step sizes the move starts from.
    Returns (moved points, final (log_pdf, log_f, aux), adapted log steps,
    diagnostics).
    """
    pts = np.array(np.atleast_2d(np.asarray(points, dtype=float)))
    m, d = pts.shape
    if draws.shape != (m, d):
        raise ValueError(f"rwmh_move: a draw stream of shape {draws.shape} "
                         f"cannot move {m} points in {d} dimensions")
    log_pdf = np.array(current[0], dtype=float)
    log_f = np.array(current[1], dtype=float)
    aux = {k: np.array(v) for k, v in current[2].items()}
    logp = log_pdf + log_f
    if np.any(~np.isfinite(logp)):
        raise ValueError("rwmh_move: the current log target must be finite")

    def score(x, rows):
        # the factor at x = the proposals `rows`; records their acceptance
        lf, aux_prop = log_factor(x)
        lf = np.asarray(lf, dtype=float)
        lt = lp_prop.take(rows) + lf
        a = np.subtract(lt, logp.take(rows))
        with np.errstate(over="ignore"):
            np.exp(a, out=a)
        np.minimum(a, 1.0, out=a)
        accept_prob[rows] = a
        return lf, lt, aux_prop, a

    lp_prop = np.empty(m)  # log density at the sweep's proposals
    accept_prob = np.empty(m)  # acceptance probability, or its bound if unscored
    scored = np.empty(m, dtype=bool)
    diag = MoveDiagnostics()
    for s in range(1, SWEEPS + 1):
        proposal, u = draws.take()
        steps = np.broadcast_to(np.exp(log_sigma), (min(m, _BLOCK_ROWS), d)).copy()
        for i in range(0, m, _BLOCK_ROWS):
            j = min(i + _BLOCK_ROWS, m)
            z = proposal[i:j]
            z *= steps[:j - i]  # pts + step * z, formed in place
            z += pts[i:j]
            lp_prop[i:j] = log_density(z)
            bound = accept_prob[i:j]  # exp(min(log pdf(z) - logp(x), 0))
            np.subtract(lp_prop[i:j], logp[i:j], out=bound)
            np.minimum(bound, 0.0, out=bound)
            np.exp(bound, out=bound)
            np.less(u[i:j], bound, out=scored[i:j])
            rows = i + np.flatnonzero(scored[i:j])
            if rows.size == 0:  # the block accepts nothing
                continue
            x = proposal.take(rows, axis=0)
            lf, lt, aux_prop, a = score(x, rows)
            k = np.flatnonzero(u.take(rows) < a)  # accepted, as positions in x
            idx = rows.take(k)
            pts[idx] = x.take(k, axis=0)
            logp[idx] = lt.take(k)
            log_pdf[idx] = lp_prop.take(idx)
            log_f[idx] = lf.take(k)
            for key in aux:
                aux[key][idx] = np.asarray(aux_prop[key]).take(k, axis=0)
        lo, hi = _acceptance_bounds(
            accept_prob, scored, lambda rows: score(proposal.take(rows, axis=0), rows))
        diag.acceptance.append(lo)
        diag.acceptance_hi.append(hi)
        delta = LOG_STEP_DELTA / s
        log_sigma = log_sigma + (delta if lo > TARGET_ACCEPTANCE else -delta)
        diag.step_log_sigma.append(log_sigma.copy())
    return pts, (log_pdf, log_f, aux), log_sigma, diag


def _acceptance_bounds(accept_prob: np.ndarray, scored: np.ndarray, score) -> tuple[float, float]:
    """[lo, hi] around the mean of `accept_prob`, whose unscored entries hold
    upper bounds, after `score(rows)` has filled in unscored rows until the
    interval lies `_SCREEN_MARGIN` clear of `TARGET_ACCEPTANCE`. Each call
    scores, in descending bound order, the shortest run of unscored rows
    whose bounds sum past the nearer edge's distance, min(above - lo,
    hi - below): a row's value lies in [0, bound], so no shorter run can
    clear the interval, and the rows scored are those of a one-row-at-a-time
    scan. The order comes from the top `_BLOCK_ROWS` unscored bounds, sorted,
    and the next such set once those are scored. Once every row is scored,
    lo = hi = the exact mean, so `lo > TARGET_ACCEPTANCE` is the
    adaptation's decision either way."""
    m = accept_prob.shape[0]
    rest = np.flatnonzero(~scored)
    hi = float(accept_prob.sum())
    lo = hi - float(accept_prob[rest].sum())
    above = (TARGET_ACCEPTANCE + _SCREEN_MARGIN) * m  # sums, not means
    below = (TARGET_ACCEPTANCE - _SCREEN_MARGIN) * m
    order = rest[:0]  # the sorted set, highest bound first
    done = 0  # rows of `order` scored
    while lo <= above and hi >= below:  # the interval holds the target
        if done == order.size:
            if rest.size == 0:
                break
            if rest.size > _BLOCK_ROWS:
                top = np.argpartition(accept_prob[rest], rest.size - _BLOCK_ROWS)
                order, rest = rest[top[-_BLOCK_ROWS:]], rest[top[:-_BLOCK_ROWS]]
            else:
                order, rest = rest, rest[:0]
            bounds = accept_prob[order]
            top = np.argsort(bounds)[::-1]
            order, done = order[top], 0
            cum = np.concatenate(([0.0], np.cumsum(bounds[top])))  # cum[i]: order[:i]'s bounds
        reach = cum[done] + min(above - lo, hi - below)
        end = int(np.searchsorted(cum, reach, side="right"))  # the first cum[end] > reach
        chunk, done = order[done:end], min(end, order.size)
        bound = float(accept_prob[chunk].sum())
        score(chunk)
        exact = float(accept_prob[chunk].sum())
        lo += exact
        hi += exact - bound
    if done == order.size and rest.size == 0:  # every row is scored
        abar = float(accept_prob.mean())
        return abar, abar
    return lo / m, hi / m
