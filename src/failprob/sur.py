"""Coverage and misclassification functions, and the stepwise-uncertainty-
reduction acquisition rule.

The next evaluation point is chosen among the current particles by
minimizing the weighted sum, over (pruned) particles, of the expected
posterior misclassification probability after the candidate evaluation.
The expectation has a closed form in the posterior mean/variance at the
integration point and the cross quantity s_n(x, x_new). With
b2 = (u - mean)/sd, rho = s_n/sd and b1 = b2/rho it is
Phi(b1) + Phi(b2) - 2 Phi2(b1, b2; rho) = 2 T(b2, sqrt(1 - rho^2)/rho), T
being Owen's T function: in Owen's (1956) T-function form of Phi2 the
T(b1, .) term has second argument (b2 - rho b1)/(b1 sqrt(1 - rho^2)) = 0.
Everything is evaluated as one (integration point x candidate) matrix;
`expected_misclass_after` keeps the Phi2 form as the reference that tests
compare against. The pair matrix, and the posterior covariance it is built
from, are computed in row blocks on every usable core (`core._row_blocks`);
each entry is computed on its own, so the bits are the same at any thread
count. `--jobs` workers run one thread each (`core.set_kernel_threads`).

Degenerate-variance guards: points whose posterior variance is below
1e-12 * sigma2 count as classified; pairs with s_n^2 below the same floor
count as uncorrelated (the candidate teaches nothing about that point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import log_ndtr, ndtr, owens_t

from .core import ParticleSystem, _row_blocks
from .gp import GpModel
from .stats import binorm_cdf

__all__ = [
    "VAR_FLOOR_REL",
    "model_var_floor",
    "coverage_g",
    "log_coverage_g",
    "log_misclass_tau",
    "misclass_tau",
    "expected_misclass_after",
    "CandidateSet",
    "build_candidates",
    "prune",
    "SurSelection",
    "select_next_point",
]

VAR_FLOOR_REL = 1e-12
_TIE_TOL = 1e-12
_LOG_FLOOR = -700.0  # floor of log g_prev and of clipped log terms, here and in bss


def model_var_floor(model) -> float:
    """Classification floor for posterior variances.

    At least VAR_FLOOR_REL * sigma2, but always above the factorization
    nugget so that evaluated design points count as classified by their
    observed value (the no-nugget semantics of exact interpolation).
    """
    jitter = getattr(model, "jitter", 0.0)
    return max(VAR_FLOOR_REL, 10.0 * jitter) * model.hyper.sigma2


def coverage_g(mean, sd, u):
    """P(xi(x) > u) under the posterior: Phi((mean - u)/sd); indicator for sd = 0."""
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    if np.any(sd < 0.0):
        raise ValueError("coverage_g requires sd >= 0")
    mean_b, sd_b = np.broadcast_arrays(mean, sd)
    out = np.where(
        sd_b > 0.0,
        ndtr(np.where(sd_b > 0.0, (mean_b - u) / np.where(sd_b > 0.0, sd_b, 1.0), 0.0)),
        (mean_b > u).astype(float),
    )
    return float(out[()]) if out.ndim == 0 else out


def log_coverage_g(mean, sd, u):
    """log of coverage_g, exact in the deep tail via log_ndtr."""
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    if mean.ndim == 1 and mean.shape == sd.shape and sd.size and sd.min() > 0.0:
        return log_ndtr((mean - u) / sd)  # the masked path below, without the masks
    mean_b, sd_b = np.broadcast_arrays(mean, sd)
    pos = sd_b > 0.0
    z = (mean_b - u) / np.where(pos, sd_b, 1.0)
    out = np.where(pos, log_ndtr(np.where(pos, z, 0.0)),
                   np.where(mean_b > u, 0.0, -np.inf))
    return float(out[()]) if out.ndim == 0 else out


def misclass_tau(g):
    """min(g, 1 - g) for g in [0, 1]."""
    g = np.asarray(g, dtype=float)
    if np.any(g < -1e-12) or np.any(g > 1.0 + 1e-12):
        raise ValueError("misclass_tau requires g in [0, 1]")
    g = np.clip(g, 0.0, 1.0)
    out = np.minimum(g, 1.0 - g)
    return float(out[()]) if out.ndim == 0 else out


def log_misclass_tau(mean, sd, u):
    """log of min(g, 1-g) from the posterior (both tails via log_ndtr)."""
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    mean_b, sd_b = np.broadcast_arrays(mean, sd)
    pos = sd_b > 0.0
    z = np.where(pos, (mean_b - u) / np.where(pos, sd_b, 1.0), 0.0)
    out = np.where(pos, np.minimum(log_ndtr(z), log_ndtr(-z)), -np.inf)
    return float(out[()]) if out.ndim == 0 else out


def _expected_misclass_matrix(mean_x, sd_x, s_mat, u, var_floor):
    """Expected post-evaluation misclassification, rows = integration points,
    columns = candidates. Applies the degenerate-variance guards.

    Each pair is 2 T(b2, sqrt(1 - rho^2)/rho) (module docstring);
    `expected_misclass_after` computes the same value through Phi2. The pairs
    are evaluated in row blocks on the kernel thread pool
    (`core._row_blocks`), each into its rows of one output matrix.
    """
    sd_floor = np.sqrt(var_floor)
    mean_x = np.asarray(mean_x, dtype=float)
    sd_x = np.asarray(sd_x, dtype=float)
    s_mat = np.asarray(s_mat, dtype=float)
    row_ok = sd_x > sd_floor
    tau_x = np.minimum(ndtr((mean_x - u) / np.maximum(sd_x, sd_floor)),
                       ndtr((u - mean_x) / np.maximum(sd_x, sd_floor)))
    tau_x = np.where(row_ok, tau_x, 0.0)
    sd_row = np.where(row_ok, sd_x, 1.0)
    b2 = (u - mean_x) / sd_row
    out = np.empty(s_mat.shape)

    def block(i, j):
        # Dense over every pair: cheaper than gathering the valid ones, and the
        # guarded entries are overwritten below (rho = 0 gives a = inf, T finite).
        s = s_mat[i:j]
        rho = np.clip(s / sd_row[i:j, None], 0.0, 1.0)
        with np.errstate(divide="ignore"):
            a = np.sqrt((1.0 - rho) * (1.0 + rho)) / rho
        vals = out[i:j]
        np.clip(2.0 * owens_t(b2[i:j, None], a), 0.0, 1.0, out=vals)
        # uninformative candidate -> tau(x); classified row -> tau(x) = 0
        np.copyto(vals, tau_x[i:j, None], where=~(row_ok[i:j, None] & (s > sd_floor)))

    _row_blocks(block, *out.shape)
    return out, tau_x


def expected_misclass_after(model: GpModel, x, x_new, u) -> float:
    """Expected misclassification probability at x after evaluating at x_new.

    Computed from the bivariate normal CDF,
    Phi(b1) + Phi(b2) - 2 Phi2(b1, b2; rho): the reference implementation
    for the Owen's T form that `select_next_point` uses.
    """
    x = np.asarray(x, dtype=float)
    mean_x, var_x = model.predict(x)
    var_floor = model_var_floor(model)
    if var_x <= var_floor:
        return 0.0
    sd_x = math.sqrt(var_x)
    num = u - mean_x
    b2 = num / sd_x
    s = model.cross_sd(x, x_new, var_floor=var_floor)
    if s <= math.sqrt(var_floor):
        return float(min(ndtr(-b2), ndtr(b2)))
    b1 = num / s
    rho = min(s / sd_x, 1.0)
    val = ndtr(b1) + ndtr(b2) - 2.0 * binorm_cdf(b1, b2, rho)
    return float(min(max(val, 0.0), 1.0))


@dataclass
class CandidateSet:
    """Per-particle posterior values and the weighted misclassification
    scores used for pruning; `indices` lists the particles in the set, and
    every other array is indexed by particle."""

    indices: np.ndarray
    points: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    log_g_prev: np.ndarray
    log_weights: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return self.indices.shape[0]


def build_candidates(particles: ParticleSystem, mean: np.ndarray, sd: np.ndarray,
                     log_g_prev: np.ndarray, u_t: float, var_floor: float) -> CandidateSet:
    """Score every particle: tau-tilde = weight * tau(x) / g_prev(x)."""
    sd_floor = np.sqrt(var_floor)
    log_tau = log_misclass_tau(mean, np.where(sd > sd_floor, sd, 0.0), u_t)
    log_c = particles.log_weights - np.maximum(log_g_prev, _LOG_FLOOR)
    log_score = np.clip(log_c, None, 700.0) + log_tau
    scores = np.exp(np.clip(log_score, _LOG_FLOOR, 700.0))
    scores = np.where(np.isneginf(log_score), 0.0, scores)
    return CandidateSet(
        indices=np.arange(particles.m),
        points=particles.points,
        mean=np.asarray(mean, dtype=float),
        sd=np.asarray(sd, dtype=float),
        log_g_prev=np.asarray(log_g_prev, dtype=float),
        log_weights=particles.log_weights,
        scores=scores,
    )


def prune(candidates: CandidateSet, m0_max: int = 1000, rho: float = 0.99) -> CandidateSet:
    """Keep the smallest score-descending prefix holding a fraction rho of the
    total score mass, capped at m0_max. All-zero scores fall back to the
    single highest-weight candidate. Only `indices` changes; the per-particle
    arrays are shared, not copied."""
    idx = candidates.indices
    scores = candidates.scores[idx]
    total = float(scores.sum())
    if total <= 0.0:
        keep = np.array([int(np.argmax(candidates.log_weights[idx]))])
    else:
        order = np.argsort(-scores, kind="stable")
        csum = np.cumsum(scores[order])
        k = int(np.searchsorted(csum, rho * total)) + 1
        k = min(k, m0_max, int(np.count_nonzero(scores)))
        keep = np.sort(order[:k])
    return replace(candidates, indices=idx[keep])


@dataclass
class SurSelection:
    x_new: np.ndarray
    criterion: float
    particle_index: int
    n_scored: int
    n_pruned: int
    n_candidates: int


def select_next_point(model: GpModel, particles: ParticleSystem,
                      log_g_prev: np.ndarray, u_t: float, *,
                      mean: np.ndarray | None = None, sd: np.ndarray | None = None,
                      m0_max: int = 1000, rho: float = 0.99) -> SurSelection:
    """Exhaustive discrete SUR search over the pruned particle set.

    The pruned set serves both as integration support and as the candidate
    pool. Duplicate particle locations (resampling copies) are merged: their
    integration coefficients add exactly, and the merged candidate keeps the
    lowest original particle index for tie-breaking.
    """
    if mean is None or sd is None:
        mean, var = model.predict(particles.points)
        sd = np.sqrt(var)
    var_floor = model_var_floor(model)
    cands = build_candidates(particles, mean, sd, log_g_prev, u_t, var_floor)
    pruned = prune(cands, m0_max=m0_max, rho=rho)

    # merge duplicate locations
    keep = pruned.indices
    _, first, inverse = np.unique(cands.points[keep], axis=0, return_index=True,
                                  return_inverse=True)
    n_u = first.shape[0]
    rep = np.full(n_u, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(rep, inverse, keep)
    coeff = np.zeros(n_u)
    log_c = np.clip(cands.log_weights[keep] - np.maximum(cands.log_g_prev[keep], _LOG_FLOOR),
                    _LOG_FLOOR, 700.0)
    np.add.at(coeff, inverse, np.exp(log_c))
    order = np.argsort(rep, kind="stable")
    u_idx = keep[first][order]
    U = cands.points[u_idx]
    mean_u = cands.mean[u_idx]
    sd_u = cands.sd[u_idx]
    coeff = coeff[order]
    rep = rep[order]

    # cross quantities: s_n(x_row, cand_col) = |k_n| / sd(cand)
    s_mat = np.abs(model.posterior_cov(U, U))
    sd_floor = np.sqrt(var_floor)
    s_mat /= np.where(sd_u > sd_floor, sd_u, np.inf)[None, :]

    E, _ = _expected_misclass_matrix(mean_u, sd_u, s_mat, u_t, var_floor)
    J = coeff @ E
    j_min = float(J.min())
    pick = int(np.argmax(J <= j_min + _TIE_TOL * (1.0 + abs(j_min))))
    return SurSelection(
        x_new=U[pick].copy(),
        criterion=float(J[pick]),
        particle_index=int(rep[pick]),
        n_scored=len(cands),
        n_pruned=len(pruned),
        n_candidates=n_u,
    )
