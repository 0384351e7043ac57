"""Gaussian process regression for limit-state surrogates.

The prior is a stationary anisotropic Matern covariance of regularity 5/2
over an unknown constant mean. The mean is profiled out exactly by
generalized least squares, so the posterior mean is the ordinary kriging
predictor. The per-dimension ranges are estimated by restricted maximum
likelihood with multi-start L-BFGS-B on the log scale, using analytic
gradients; the process variance is profiled out too, as its closed-form
maximizer Q/(n-1) clipped to the variance bounds, so the search runs over
the d log-ranges only (as DiceKriging does). The fit calls scipy's L-BFGS-B
routine (`setulb`) directly, with the arguments and defaults of
`scipy.optimize.minimize(method="L-BFGS-B")` in scipy 1.17, so it takes the
same iterates without that wrapper's per-call cost.

A fixed relative jitter is added to the correlation diagonal for
factorization stability; interpolation and the posterior-variance floor are
exact up to that jitter. The Cholesky factorization and its solves call
LAPACK `potrf`/`potrs` directly (the routines inside scipy's `cho_factor`
and `cho_solve`, so the results are the same bits), with explicit
finiteness checks in place of scipy's `check_finite`. `GpModel` and
`reml_objective` solve the kriging system by one helper, `_gls`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize._lbfgsb import setulb
from scipy.spatial.distance import cdist

from .core import _row_spans

__all__ = [
    "DEFAULT_JITTER",
    "matern52_corr",
    "CovarianceHyperparams",
    "GpModel",
    "fit_reml",
    "reml_objective",
]

DEFAULT_JITTER = 1e-10
REML_MAXITER = 100  # L-BFGS-B iterations per ReML start
_SQRT10 = math.sqrt(10.0)
_LOG_2PI = math.log(2.0 * math.pi)
_PAD_ROWS = 8  # predict pads its batches to a multiple of this many rows


def matern52_corr(h):
    """Matern 5/2 correlation (1 + t + t^2/3) exp(-t), t = sqrt(10)|h|, for h >= 0."""
    h = np.asarray(h, dtype=float)
    if np.any(h < 0.0):
        raise ValueError("matern52_corr requires h >= 0")
    t = _SQRT10 * h
    return (1.0 + t + t * t / 3.0) * np.exp(-t)


@dataclass(frozen=True)
class CovarianceHyperparams:
    """Process variance and per-dimension ranges of the Matern 5/2 prior,
    and whether the ReML fit that produced them converged."""

    sigma2: float
    ranges: np.ndarray
    converged: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranges", np.atleast_1d(np.asarray(self.ranges, dtype=float)))
        if not (self.sigma2 > 0.0):
            raise ValueError("sigma2 must be positive")
        if np.any(self.ranges <= 0.0):
            raise ValueError("all ranges must be positive")

    @property
    def dim(self) -> int:
        return self.ranges.shape[0]


def _chol(R: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of R, upper triangle left as in R (cho_factor's c)."""
    if not np.isfinite(R).all():
        raise ValueError("array must not contain infs or NaNs")
    c, info = dpotrf(R, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    return c


def _chol_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """R^-1 b from the factor returned by _chol; b is (n,) or (n, k)."""
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    x, info = dpotrs(c, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrs")
    return x


def _gls(R: np.ndarray, y: np.ndarray):
    """The kriging system of the correlation matrix R (nugget included) and
    the data y, solved once: the Cholesky factor c of R, R^-1 1, 1' R^-1 1,
    the GLS mean mu and R^-1 (y - mu). Raises LinAlgError where R is not
    positive definite."""
    c = _chol(R)
    ones = np.ones(R.shape[0])
    rinv_one = _chol_solve(c, ones)
    one_rinv_one = float(ones @ rinv_one)
    mu = float(rinv_one @ y) / one_rinv_one
    return c, rinv_one, one_rinv_one, mu, _chol_solve(c, y - mu)


class GpModel:
    """Ordinary-kriging posterior from design data and fixed hyperparameters.

    Immutable once factorized: predictions and posterior covariances only
    read it. Refitting builds a fresh model. Both queries take a (k, d)
    batch, and a point is a batch of one row.
    """

    jitter = DEFAULT_JITTER  # the nugget on the correlation diagonal

    def __init__(self, design_points, design_values, hyper: CovarianceHyperparams):
        X = np.atleast_2d(np.asarray(design_points, dtype=float))
        y = np.asarray(design_values, dtype=float).reshape(-1)
        if X.shape[0] != y.shape[0]:
            raise ValueError("design_points and design_values disagree on n")
        if X.shape[1] != hyper.dim:
            raise ValueError("design dimension does not match hyperparameters")
        self.design_points = X
        self.design_values = y
        self.hyper = hyper
        self._zd = X / hyper.ranges  # the design in range units

        R = matern52_corr(cdist(self._zd, self._zd))
        R[np.diag_indices(X.shape[0])] += self.jitter
        self._factor, self._rinv_one, self._one_rinv_one, self._mu, self._alpha = _gls(R, y)

    def _scaled(self, x, name: str) -> np.ndarray:
        """The (k, d) batch x in range units; any other shape is a ValueError."""
        x = np.asarray(x, dtype=float)
        d = self._zd.shape[1]
        if x.ndim != 2 or x.shape[1] != d:
            raise ValueError(f"{name} takes a (k, {d}) array, got shape {x.shape}")
        return x / self.hyper.ranges

    def predict(self, x):
        """Posterior mean and variance, two (k,) arrays, at a (k, d) batch.

        Computed on the batch padded by its last row to a multiple of
        `_PAD_ROWS` rows, so that a row gets the same bits in any batch (BLAS
        takes a partial block of rows by another path)."""
        z = self._scaled(x, "predict")
        k = z.shape[0]
        z = np.concatenate([z, np.repeat(z[-1:], -k % _PAD_ROWS, axis=0)])
        r = matern52_corr(cdist(z, self._zd))
        mean = self._mu + r @ self._alpha
        rinv_r = _chol_solve(self._factor, r.T)
        quad = np.einsum("ij,ji->i", r, rinv_r)
        defect = 1.0 - r @ self._rinv_one
        var = self.hyper.sigma2 * (1.0 - quad + defect * defect / self._one_rinv_one)
        return mean[:k], np.maximum(var[:k], 0.0)

    def posterior_cov(self, U) -> np.ndarray:
        """Posterior covariance matrix k_n(U, U) of a (k, d) batch, including
        the GLS mean term.

        The prior term and the sum are built in row blocks
        (`core._row_spans`), entry by entry, so the bits do not depend on
        the split; the cross term stays one matrix product.
        """
        z = self._scaled(U, "posterior_cov")
        r = matern52_corr(cdist(z, self._zd))
        cov = r @ _chol_solve(self._factor, r.T)  # overwritten block by block
        defect = 1.0 - r @ self._rinv_one
        for i, j in _row_spans(*cov.shape):
            k = matern52_corr(cdist(z[i:j], z))
            k -= cov[i:j]
            k += np.outer(defect[i:j], defect) / self._one_rinv_one
            np.multiply(self.hyper.sigma2, k, out=cov[i:j])
        return cov


def reml_objective(design_points, design_values, log_ranges, *, neg_sq_diffs, sigma2_bounds):
    """Negative restricted log-likelihood, its gradient in the log-ranges,
    and the profiled process variance.

    Coordinates are (log rho_1, ..., log rho_d). The constant mean is
    profiled out exactly, which removes one degree of freedom, and so is
    the process variance: with Q the GLS quadratic form, sigma2 is
    Q / (n-1), its maximizer, clipped to `sigma2_bounds` = (lo, hi). The
    objective is 0.5 * [(n-1) log 2 pi + (n-1) log sigma2 + log|R|
    + log(1' R^-1 1) + Q / sigma2] at that sigma2; R has `DEFAULT_JITTER`
    (read at call time) on its diagonal. The range gradient is the full
    one at fixed sigma2, which is exact for the profiled objective: its
    sigma2-derivative vanishes at an interior maximizer, and a clipped
    sigma2 is constant. R is solved by `_gls`, as in `GpModel`. Returns
    (nll, grad, sigma2); where R is not positive definite, (1e14, zeros, hi).

    `neg_sq_diffs` is the (d, n, n) array of -(x_ik - x_jk)^2 from
    `_neg_sq_diffs(X)`, which depends on the design only; `fit_reml`
    computes it once per fit and passes it to every call. With
    t = sqrt(10) h, R and dR/d rho share one exp(-t), in the expressions of
    `matern52_corr` and of kappa'(h)/h = -(10/3) (1 + t) exp(-t).
    """
    X = np.atleast_2d(np.asarray(design_points, dtype=float))
    y = np.asarray(design_values, dtype=float).reshape(-1)
    ranges = np.exp(np.asarray(log_ranges, dtype=float))
    n, d = X.shape
    if ranges.shape[0] != d:
        raise ValueError("log_ranges must have length d")
    lo, hi = sigma2_bounds

    Z = X / ranges
    t = _SQRT10 * cdist(Z, Z)
    exp_t = np.exp(-t)
    R = (1.0 + t + t * t / 3.0) * exp_t
    R[np.diag_indices(n)] += DEFAULT_JITTER
    try:
        c, v, oro, mu, a = _gls(R, y)
    except np.linalg.LinAlgError:
        return 1e14, np.zeros(d), hi
    logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
    Q = float((y - mu) @ a)
    sigma2 = min(max(Q / (n - 1), lo), hi)

    nll = 0.5 * ((n - 1) * _LOG_2PI + (n - 1) * math.log(sigma2) + logdet + math.log(oro)
                 + Q / sigma2)

    grad = np.empty(d)
    Rinv = _chol_solve(c, np.eye(n))
    # dR/d rho_k = kappa'(h)/h * (-(x_ik - x_jk)^2 / rho_k^3), all k at once;
    # rho_k^3 as scalar powers, the operation the per-k form used
    cubes = np.array([ranges[k] ** 3 for k in range(d)])
    Rdot = np.divide(neg_sq_diffs, cubes[:, None, None])
    Rdot *= -(10.0 / 3.0) * (1.0 + t) * exp_t
    # row k of each product has the bits of v @ Rdot[k]; the second dot
    # stays per k, a batched one would sum in another order
    vR = np.matmul(v, Rdot)
    aR = np.matmul(a, Rdot)
    Rdot *= Rinv
    traces = Rdot.reshape(d, -1).sum(axis=1)
    for k in range(d):
        d_oro = -float(vR[k] @ v) / oro
        d_quad = -float(aR[k] @ a)
        grad[k] = 0.5 * (float(traces[k]) + d_oro + d_quad / sigma2) * ranges[k]
    return nll, grad, sigma2


def _neg_sq_diffs(X: np.ndarray) -> np.ndarray:
    """The (d, n, n) array of -(x_ik - x_jk)^2.

    C-contiguous, so each `Rdot[k]` in `reml_objective` is laid out as a
    fresh (n, n) matrix: the layout fixes the order in which its trace and
    quadratic forms are summed, and with it the bits of the gradient.
    """
    cols = np.ascontiguousarray(X.T)
    diff = cols[:, :, None] - cols[:, None, :]
    return -(diff ** 2)


def _lbfgsb(objective, x0, lb, ub, maxiter):
    """Minimize `objective(x) -> (f, grad)` over the box [lb, ub] from x0.

    The loop of scipy 1.17's `_minimize_lbfgsb` over the L-BFGS-B routine,
    with its defaults (10 corrections, ftol 2.2e-9, gtol 1e-5, 20 line-search
    steps) and every bound finite. Its function-evaluation limit of 15000
    cannot bind: at most 20 evaluations per iteration. Returns the last
    iterate, its value, and whether the routine reported convergence.

    `setulb` is private to scipy and takes these 17 arguments from scipy
    1.15 on; a TypeError from it is raised again as a RuntimeError that
    names the installed scipy.
    """
    n, m = x0.shape[0], 10
    x = np.clip(x0, lb, ub)
    f = np.array(0.0)
    g = np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    nbd = np.full(n, 2, np.int32)  # 2: bounded below and above
    factr = 2.2204460492503131e-09 / np.finfo(float).eps
    n_iterations = 0
    while True:
        try:
            setulb(m, x, lb, ub, nbd, f, g, factr, 1e-5, wa, iwa, task, lsave, isave, dsave,
                   20, ln_task)
        except TypeError as exc:
            raise RuntimeError(
                f"scipy {scipy.__version__}: scipy.optimize._lbfgsb.setulb does not take "
                "the arguments of scipy >= 1.15, which the ReML fit requires") from exc
        if task[0] == 3:  # evaluate at x; setulb overwrites x in place
            f, g = objective(x.copy())
        elif task[0] == 1:  # an iteration ended
            n_iterations += 1
            if n_iterations >= maxiter:
                task[:] = 5, 504  # STOP: iteration limit, as scipy sets it
        else:
            break
    return x, f, bool(task[0] == 4)


def fit_reml(design_points, design_values, rng: np.random.Generator, n_starts: int,
             init: CovarianceHyperparams | None = None) -> CovarianceHyperparams:
    """Estimate (sigma2, ranges) by multi-start quasi-Newton ReML.

    L-BFGS-B searches the d log-ranges; `reml_objective` profiles sigma2
    out, and the fit returns the sigma2 of its best iterate. The starts are
    `init.ranges` if given, half the span, then random ranges from `rng`.
    Returns the best local maximizer found; if no start converges, the best
    iterate is returned with converged=False and a warning. Range bounds
    are [1e-3, 1e3] times the design span per dimension; sigma2 is clipped
    to [1e-10, 1e6] times var(y), so the estimate scales with the data.

    L-BFGS-B asks again for points it has already evaluated (line-search
    restarts, and across starts), so the objective is memoized for the fit,
    keyed by the bytes of the log-ranges: a repeat gets the same value and
    a copy of the same gradient, and the optimizer the same bits. Each
    start runs `_lbfgsb`, the L-BFGS-B loop of `scipy.optimize.minimize`.
    """
    X = np.atleast_2d(np.asarray(design_points, dtype=float))
    y = np.asarray(design_values, dtype=float).reshape(-1)
    n, d = X.shape
    if n < d + 2:
        raise ValueError(f"need at least d + 2 = {d + 2} design points, got {n}")
    dist = cdist(X, X)
    dist[np.diag_indices(n)] = np.inf
    if dist.min() == 0.0:
        raise ValueError("degenerate design: duplicate points")

    span = X.max(axis=0) - X.min(axis=0)
    span = np.where(span > 0.0, span, max(float(span.max()), 1.0))
    s2y = float(np.var(y, ddof=1))
    if s2y <= 0.0 or not np.isfinite(s2y):
        floor = (1e-8 * (1.0 + abs(float(np.mean(y))))) ** 2
        return CovarianceHyperparams(sigma2=floor, ranges=span.copy())

    sigma2_bounds = (1e-10 * s2y, 1e6 * s2y)
    lb = np.log(1e-3 * span)
    ub = np.log(1e3 * span)

    starts: list[np.ndarray] = []
    if init is not None:
        starts.append(np.log(init.ranges))
    starts.append(np.log(span / 2.0))
    while len(starts) < n_starts:
        starts.append(np.log(span) + rng.uniform(math.log(0.1), math.log(10.0), size=d))
    starts = [np.clip(s, lb + 1e-9, ub - 1e-9) for s in starts[:n_starts]]

    neg_sq_diffs = _neg_sq_diffs(X)
    memo: dict[bytes, tuple] = {}

    def evaluate(log_ranges):
        key = log_ranges.tobytes()
        if key not in memo:  # looked up at call time, so a tracer can wrap reml_objective
            memo[key] = reml_objective(X, y, log_ranges, neg_sq_diffs=neg_sq_diffs,
                                       sigma2_bounds=sigma2_bounds)
        return memo[key]

    def objective(log_ranges):
        nll, grad, _ = evaluate(log_ranges)
        return nll, grad.copy()

    best = None
    best_val = np.inf
    any_success = False
    for s0 in starts:
        x, f, success = _lbfgsb(objective, s0, lb, ub, REML_MAXITER)
        any_success = any_success or success
        if f < best_val:
            best_val = float(f)
            best = x
    if best is None:  # pragma: no cover - every start returns an iterate
        raise RuntimeError("ReML optimization produced no iterate")
    if not any_success:
        warnings.warn("ReML optimizer did not converge; returning best iterate")
    return CovarianceHyperparams(
        sigma2=evaluate(best)[2], ranges=np.exp(best), converged=any_success
    )
