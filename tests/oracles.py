"""Reference functions that only tests call: the posterior coverage and
misclassification probabilities in linear space, and the standard normal
CDF. The package computes the first two in log space (`sur.log_coverage_g`,
`sur.log_misclass_tau`); these are what tests compare against."""

import numpy as np
from scipy.special import ndtr


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
