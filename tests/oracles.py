"""Reference functions that only tests call: the posterior coverage and
misclassification probabilities in linear space, and the standard normal
CDF. The package computes the first two in log space (`sur.log_coverage_g`,
`sur.log_misclass_tau`); these are what tests compare against. Also the
inputs of the SUR pair kernel taken from a GP, its guards on a reference
pair matrix, and the Matern 5/2 correlation matrix of two point sets."""

import math

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import ndtr


def corr_matrix(Xa, Xb, ranges):
    """Matern 5/2 correlations (1 + t + t^2/3) exp(-t), t = sqrt(10) h, between
    the rows of Xa and of Xb, h the Euclidean distance in range units. These
    are the operations `gp.GpModel` takes, so tests may compare its bits."""
    ranges = np.asarray(ranges, dtype=float)
    t = math.sqrt(10.0) * cdist(np.asarray(Xa, dtype=float) / ranges,
                                np.asarray(Xb, dtype=float) / ranges)
    return (1.0 + t + t * t / 3.0) * np.exp(-t)


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


def misclass_tau(g):
    """min(g, 1 - g) for g in [0, 1]."""
    g = np.asarray(g, dtype=float)
    if np.any(g < -1e-12) or np.any(g > 1.0 + 1e-12):
        raise ValueError("misclass_tau requires g in [0, 1]")
    g = np.clip(g, 0.0, 1.0)
    out = np.minimum(g, 1.0 - g)
    return float(out[()]) if out.ndim == 0 else out


def norm_cdf(z):
    """Standard normal CDF; accepts +-inf, rejects NaN."""
    z = np.asarray(z, dtype=float)
    if np.any(np.isnan(z)):
        raise ValueError("norm_cdf: NaN input")
    out = ndtr(z)
    return float(out[()]) if out.ndim == 0 else out


def sur_pair_inputs(model, X, var_floor):
    """(mean, sd, s) at the rows of X, taken from the GP as
    `sur.select_next_point` takes them: the posterior mean and sd from
    `predict`, and s[i, j] = |k_n(x_i, x_j)| / sd(x_j), which is 0 where
    sd(x_j) is at or below the floor sqrt(var_floor)."""
    mean, var = model.predict(X)
    sd = np.sqrt(var)
    s = np.abs(model.posterior_cov(X))
    s /= np.where(sd > np.sqrt(var_floor), sd, np.inf)[None, :]
    return mean, sd, s


def guarded_misclass_after(reference, mean_x, sd_x, s_mat, u, var_floor):
    """`reference(mean_x, sd_x, s_mat, u)`, a (point x candidate) matrix of
    the expected misclassification after evaluation, under the SUR kernel's
    degenerate-variance guards: a classified row (sd at or below the floor
    sqrt(var_floor)) gives 0, and a pair whose s is at or below the floor
    gives tau(x). The guarded pairs reach the reference at rho = 1 (s = sd,
    and sd = 1 on classified rows), and its values there are dropped."""
    mean_x, sd_x, s_mat = (np.asarray(v, dtype=float) for v in (mean_x, sd_x, s_mat))
    sd_floor = np.sqrt(var_floor)
    row_ok = sd_x > sd_floor
    pair_ok = row_ok[:, None] & (s_mat > sd_floor)
    sd_row = np.where(row_ok, sd_x, 1.0)
    ref = reference(mean_x, sd_row, np.where(pair_ok, s_mat, sd_row[:, None]), u)
    tau = np.where(row_ok, misclass_tau(coverage_g(mean_x, sd_row, u)), 0.0)
    return np.where(pair_ok, ref, tau[:, None])
