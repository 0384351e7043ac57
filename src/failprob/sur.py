"""Coverage and misclassification functions, and the stepwise-uncertainty-
reduction acquisition rule.

The next evaluation point is chosen among the current particles by
minimizing the sum over the pruned particles (`PRUNE_RHO`, `PRUNE_M0_MAX`),
each weighted by c = 1 / (m g_prev), of the expected posterior
misclassification probability after the candidate evaluation. The particles
are plain arrays: the m points of an equally weighted cloud and the posterior
mean and sd there. The expectation has a closed form in the posterior
mean/variance at the integration point and the cross quantity s_n(x, x_new).
With b2 = (u - mean)/sd, rho = s_n/sd and b1 = b2/rho it is
Phi(b1) + Phi(b2) - 2 Phi2(b1, b2; rho) = 2 T(b2, sqrt(1 - rho^2)/rho), T
being Owen's T function: in Owen's (1956) T-function form of Phi2 the
T(b1, .) term has second argument (b2 - rho b1)/(b1 sqrt(1 - rho^2)) = 0.
With tau = Phi(-|b2|) and k = |b2| a, a = sqrt(1 - rho^2)/rho, Owen's identity
2 T(b2, a) = tau + Phi(-k)(1 - 2 tau) - 2 T(k, 1/a) bounds each entry's
distance from tau by exp(-k^2/2)/2, which is at most 2^-56 tau, below
rounding, once k^2 >= 2 (55 ln 2 - ln tau); such pairs are tau.
The tests hold the Phi2 form as the reference this kernel is checked against.

The search is an exact branch and bound over the candidates (the columns of
the integration point x candidate matrix E; J = c @ E). Put rho = sin(phi).
Substituting x = tan(psi) in Owen's integral gives the reduction
tau - 2 T(b2, cot phi) = (1/pi) int_0^phi exp(-b2^2 / (2 sin^2 t)) dt, whose
integrand grows with t: the reduction is convex and increasing in phi. So
per row a table of the reduction at `_BINS` + 1 equally spaced angles, from
the screen's cut to phi = pi/2 (rho = 1, E = 0), bounds every pair's
reduction by the chord over its bin, and the column sums of c times these
chords bound each candidate's J from below (J_lb). The exact J of the
column with the lowest J_lb bounds the minimum from above (J_ub), and
Owen's T then runs only on the columns with J_lb <= J_ub + margin, the
margin being `_MARGIN_REL` (1 + sum c tau). It covers the rounding of
Owen's T (relative 1e-12 at worst, `_TABLE_B2_MAX`), of the angles, the
chords and the sums (relative 1e-13 for 1000 terms), and the 1e-12 tie
tolerance of the pick, with three orders of magnitude to spare. Rows with
|b2| >= `_TABLE_B2_MAX`, where Owen's T values near the smallest normal
double lose their order, take the trivial bound tau. J stays one gemv
over the full-size matrix, the pruned columns holding tau and then set to
+inf: a gemv entry depends only on its own column, and a live column holds
exactly the values the dense search computes, so every live J, the minimum
and the pick keep their bits.

The bound pass and the exact pairs loop over row blocks
(`core._row_spans`), like the posterior covariance the pairs are built
from; each entry is computed on its own and the column bounds are summed in
block order.

Degenerate-variance guards: points whose posterior variance is below
1e-12 * sigma2 count as classified; pairs with s_n^2 below the same floor
count as uncorrelated (the candidate teaches nothing about that point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import log_ndtr, ndtr, owens_t

from .core import _row_spans
from .gp import GpModel
# unused here: perfbench's stats.binorm_cdf site looks the name up in this module
from .stats import binorm_cdf  # noqa: F401

__all__ = [
    "VAR_FLOOR_REL",
    "PRUNE_RHO",
    "PRUNE_M0_MAX",
    "model_var_floor",
    "log_coverage_g",
    "log_misclass_tau",
    "prune",
    "SurSelection",
    "select_next_point",
]

VAR_FLOOR_REL = 1e-12
PRUNE_RHO = 0.99  # the pruned SUR set holds this fraction of the score mass
PRUNE_M0_MAX = 1000  # and at most this many particles
_TIE_TOL = 1e-12
_BINS = 8  # angle bins per row of the reduction table
_MARGIN_REL = 1e-9  # pruning margin, relative to 1 + sum c tau
_TABLE_B2_MAX = 37.0  # beyond, Owen's T values near the smallest normal double lose their order
_BOUND_BLOCK_SCALE = 2  # larger blocks for the bound pass, which makes many small numpy calls
_LOG_FLOOR = -700.0  # floor of log g_prev and of clipped log terms, here and in bss


def model_var_floor(model) -> float:
    """Classification floor for posterior variances.

    At least VAR_FLOOR_REL * sigma2, but always above the factorization
    nugget so that evaluated design points count as classified by their
    observed value (the no-nugget semantics of exact interpolation).
    """
    return max(VAR_FLOOR_REL, 10.0 * model.jitter) * model.hyper.sigma2


def log_coverage_g(mean, sd, u):
    """log Phi((mean - u)/sd), the log posterior P(xi(x) > u), via log_ndtr; 0 or -inf at sd = 0."""
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    if mean.ndim == 1 and mean.shape == sd.shape and sd.size and sd.min() > 0.0:
        return log_ndtr((mean - u) / sd)  # the masked path below, without the masks
    mean_b, sd_b = np.broadcast_arrays(mean, sd)
    pos = sd_b > 0.0
    z = (mean_b - u) / np.where(pos, sd_b, 1.0)
    return np.where(pos, log_ndtr(np.where(pos, z, 0.0)),
                    np.where(mean_b > u, 0.0, -np.inf))


def log_misclass_tau(mean, sd, u):
    """log of min(g, 1-g) from the posterior (both tails via log_ndtr)."""
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    mean_b, sd_b = np.broadcast_arrays(mean, sd)
    pos = sd_b > 0.0
    z = np.where(pos, (mean_b - u) / np.where(pos, sd_b, 1.0), 0.0)
    return np.where(pos, np.minimum(log_ndtr(z), log_ndtr(-z)), -np.inf)


class _Rows(NamedTuple):
    """Per-row terms of the pair matrix: tau(x), the sd that scales the row
    (1 on classified rows), b2 = (u - mean)/sd, and s_min, the cross sd at
    or below which a pair keeps tau(x) (inf on classified rows)."""

    tau: np.ndarray
    sd: np.ndarray
    b2: np.ndarray
    s_min: np.ndarray


def _rows(mean_x, sd_x, u, var_floor) -> _Rows:
    """The row terms, with the guards and the Owen's T screen of the module
    docstring: a pair keeps tau(x) where rho <= |b2| / sqrt(b2^2 + cut),
    cut = 2 (55 ln 2 - ln tau), or where s is at the sd floor."""
    sd_floor = np.sqrt(var_floor)
    mean_x = np.asarray(mean_x, dtype=float)
    sd_x = np.asarray(sd_x, dtype=float)
    row_ok = sd_x > sd_floor
    tau_x = np.minimum(ndtr((mean_x - u) / np.maximum(sd_x, sd_floor)),
                       ndtr((u - mean_x) / np.maximum(sd_x, sd_floor)))
    tau_x = np.where(row_ok, tau_x, 0.0)
    sd_row = np.where(row_ok, sd_x, 1.0)
    b2 = (u - mean_x) / sd_row
    # log_ndtr keeps ln tau finite where tau underflows. Shrinking s_max by a
    # relative 1e-9 raises a screened pair's k^2 by at least 2e-9 relative,
    # far above the few ulps of rounding in s_max, rho and a.
    cut = 2.0 * (55.0 * math.log(2.0) - log_ndtr(-np.abs(b2)))
    s_max = np.abs(b2) / np.sqrt(b2 * b2 + cut) * sd_row
    s_min = np.where(row_ok, np.maximum(s_max * (1.0 - 1e-9), sd_floor), np.inf)
    return _Rows(tau_x, sd_row, b2, s_min)


def _exact_columns(out, rows: _Rows, s_mat, cols) -> int:
    """Write 2 T(b2, a) into out[:, cols] wherever s > s_min, in row blocks
    (`core._row_spans`); every other entry of those columns must already
    hold tau(x). Each entry is computed on its own, so its bits do not
    depend on the block split. Returns the number of pairs evaluated."""
    pairs = 0
    for i, j in _row_spans(s_mat.shape[0], cols.size):
        sub = s_mat[i:j, cols]
        r, k = np.nonzero(sub > rows.s_min[i:j, None])
        pairs += r.size
        r += i
        rho = np.clip(sub[r - i, k] / rows.sd[r], 0.0, 1.0)
        with np.errstate(divide="ignore"):  # rho = 0 on underflow: a = inf, T finite
            a = np.sqrt((1.0 - rho) * (1.0 + rho)) / rho
        out[r, cols[k]] = np.clip(2.0 * owens_t(rows.b2[r], a), 0.0, 1.0)
    return pairs


def _misclass_matrix(mean_x, sd_x, s_mat, coeff, u, var_floor):
    """The pair matrix E (rows = integration points, columns = candidates),
    exact on the columns that can still minimize coeff @ E and tau(x) on the
    others, by the branch and bound of the module docstring. Returns E, the
    mask of those live columns and the number of pairs that reached Owen's T.
    """
    s_mat = np.asarray(s_mat, dtype=float)
    rows = _rows(mean_x, sd_x, u, var_floor)
    n_rows, n_cols = s_mat.shape
    # the reduction tau - E at _BINS + 1 angles phi = asin(rho) per row, from
    # the screen's cut to rho = 1, where E = 0; rows that Owen's T may not
    # keep in order get the trivial bound tau at every angle
    usable = rows.s_min < np.inf
    phi_lo = np.arcsin(np.where(usable, rows.s_min / rows.sd, 0.0))
    per_rad = _BINS / (0.5 * np.pi - phi_lo)  # bins per radian
    offset = phi_lo * per_rad
    tabled = usable & (np.abs(rows.b2) < _TABLE_B2_MAX)
    out = np.empty(s_mat.shape)
    reduction = np.zeros(n_cols)  # the column sums of c times the chords
    n_owens_t = 0
    for i, j in _row_spans(n_rows, n_cols, scale=_BOUND_BLOCK_SCALE):
        out[i:j] = rows.tau[i:j, None]
        table = np.repeat(rows.tau[i:j, None], _BINS + 1, axis=1)
        t = np.flatnonzero(tabled[i:j]) + i
        phi = (offset[t, None] + np.arange(_BINS + 1)) / per_rad[t, None]
        a = np.cos(phi) / np.sin(phi)
        a[:, -1] = 0.0  # rho = 1: the evaluation resolves x
        table[t - i] = rows.tau[t, None] - np.clip(2.0 * owens_t(rows.b2[t, None], a), 0.0, 1.0)
        n_owens_t += a.size
        # the chord over bin k, c (table[k] + (x - k) slope[k]) at x = phi
        # per_rad - offset, as u + x v on a flat (row, bin) index
        slope = np.diff(table, axis=1)
        u_cell = (coeff[i:j, None] * (table[:, :-1] - np.arange(_BINS) * slope)).ravel()
        v_cell = (coeff[i:j, None] * slope).ravel()
        sub = s_mat[i:j]
        above = sub > rows.s_min[i:j, None]
        per_row = np.count_nonzero(above, axis=1)
        col = np.flatnonzero(above)  # row-major, so rows come in order
        x = sub.take(col)
        x /= np.repeat(rows.sd[i:j], per_row)
        np.arcsin(np.minimum(x, 1.0, out=x), out=x)
        x *= np.repeat(per_rad[i:j], per_row)
        x -= np.repeat(offset[i:j], per_row)
        col -= np.repeat(np.arange(0, (j - i) * n_cols, n_cols), per_row)
        cell = x.astype(np.intp)
        np.minimum(cell, _BINS - 1, out=cell)
        cell += np.repeat(np.arange(0, (j - i) * _BINS, _BINS), per_row)
        x *= v_cell.take(cell)
        x += u_cell.take(cell)
        np.add(reduction, np.bincount(col, x, minlength=n_cols), out=reduction)
    total = float(coeff @ rows.tau)
    j_lb = total - reduction
    seed = int(np.argmin(j_lb))  # its exact J is the upper bound
    n_owens_t += _exact_columns(out, rows, s_mat, np.array([seed]))
    live = j_lb <= float(coeff @ out[:, seed]) + _MARGIN_REL * (1.0 + total)
    live[seed] = True
    rest = np.flatnonzero(live)
    n_owens_t += _exact_columns(out, rows, s_mat, rest[rest != seed])
    return out, live, n_owens_t


def prune(scores: np.ndarray) -> np.ndarray:
    """Sorted indices of the smallest score-descending prefix holding a
    fraction PRUNE_RHO of the total score mass, capped at PRUNE_M0_MAX and at
    the number of positive scores (so all-zero scores keep none)."""
    order = np.argsort(-scores, kind="stable")
    csum = np.cumsum(scores[order])
    k = int(np.searchsorted(csum, PRUNE_RHO * float(scores.sum()))) + 1
    k = min(k, PRUNE_M0_MAX, int(np.count_nonzero(scores)))
    return np.sort(order[:k])


@dataclass
class SurSelection:
    x_new: np.ndarray
    criterion: float
    particle_index: int
    n_scored: int
    n_pruned: int
    n_candidates: int
    n_live: int
    n_owens_t: int


def select_next_point(model: GpModel, points: np.ndarray, mean: np.ndarray, sd: np.ndarray,
                      log_g_prev: np.ndarray, u_t: float) -> SurSelection:
    """Exact discrete SUR search over the pruned particle set: the minimum
    and the pick of the exhaustive search, found by branch and bound (module
    docstring).

    `points` is the (m, d) cloud of equally weighted particles, `mean` and
    `sd` the posterior there, and `log_g_prev` the previous stage's log
    coverage, already floored at `_LOG_FLOOR`. The set is pruned on the
    scores tau(x) / (m g_prev(x)) and serves both as integration support and
    as the candidate pool. When every score is 0, the set is the one
    particle farthest from the design (the largest distance to its nearest
    design point, the first such particle on ties), so the pick repeats an
    evaluated point only when every particle is one.
    Duplicate particle locations (resampling copies) are merged: their
    integration coefficients add exactly, and the merged candidate keeps
    the lowest original particle index for tie-breaking.
    `n_live` counts the candidates whose criterion was computed exactly, and
    `n_owens_t` the pairs that reached Owen's T, bound tables included.
    """
    m = points.shape[0]
    var_floor = model_var_floor(model)
    sd_floor = np.sqrt(var_floor)
    log_tau = log_misclass_tau(mean, np.where(sd > sd_floor, sd, 0.0), u_t)
    log_c = -math.log(m) - log_g_prev  # log of 1 / (m g_prev)
    log_score = np.clip(log_c, None, 700.0) + log_tau
    scores = np.exp(np.clip(log_score, _LOG_FLOOR, 700.0))
    scores = np.where(np.isneginf(log_score), 0.0, scores)
    keep = prune(scores)
    if keep.size == 0:
        keep = np.array([np.argmax(cdist(points, model.design_points).min(axis=1))])

    # merge duplicate locations: `keep` is sorted and `first` indexes first
    # occurrences, so keep[first] is each location's lowest particle index
    _, first, inverse = np.unique(points[keep], axis=0, return_index=True,
                                  return_inverse=True)
    n_u = first.shape[0]
    coeff = np.zeros(n_u)
    np.add.at(coeff, inverse, np.exp(np.clip(log_c[keep], _LOG_FLOOR, 700.0)))
    rep = keep[first]
    order = np.argsort(rep, kind="stable")
    rep = rep[order]
    U = points[rep]
    mean_u = mean[rep]
    sd_u = sd[rep]
    coeff = coeff[order]

    # cross quantities: s_n(x_row, cand_col) = |k_n| / sd(cand)
    s_mat = np.abs(model.posterior_cov(U))
    s_mat /= np.where(sd_u > sd_floor, sd_u, np.inf)[None, :]

    E, live, n_owens_t = _misclass_matrix(mean_u, sd_u, s_mat, coeff, u_t, var_floor)
    J = coeff @ E
    J[~live] = np.inf
    j_min = float(J.min())
    pick = int(np.argmax(J <= j_min + _TIE_TOL * (1.0 + abs(j_min))))
    return SurSelection(
        x_new=U[pick].copy(),
        criterion=float(J[pick]),
        particle_index=int(rep[pick]),
        n_scored=m,
        n_pruned=keep.shape[0],
        n_candidates=n_u,
        n_live=int(np.count_nonzero(live)),
        n_owens_t=n_owens_t,
    )
