"""GP regression: Matern correlation, kriging identities, ReML estimation."""

import math

import numpy as np
import pytest
import scipy
from conftest import requires_scipy_117
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from failprob import gp
from failprob.core import substream
from failprob.gp import (
    DEFAULT_JITTER,
    CovarianceHyperparams,
    GpModel,
    _chol,
    _chol_solve,
    _corr_matrix,
    _neg_sq_diffs,
    fit_reml,
    matern52_corr,
    reml_objective,
)
from failprob.sur import model_var_floor

# frozen 40-digit value of (1 + sqrt(10) + 10/3) exp(-sqrt(10))
_M52_AT_1 = 0.31728336395404380402


def _random_design(rng, n, d, lo=-2.0, hi=2.0):
    """Jittered stratified design: random, but with per-dimension separation
    so the Gram matrix stays well enough conditioned to check identities."""
    pts = np.empty((n, d))
    for j in range(d):
        pts[:, j] = lo + (hi - lo) * (rng.permutation(n) + rng.uniform(0.1, 0.9, n)) / n
    return pts


def _bounds(y):
    """The variance bounds `fit_reml` gives the objective: [1e-10, 1e6] var(y)."""
    s2y = float(np.var(y, ddof=1))
    return 1e-10 * s2y, 1e6 * s2y


def _random_model(rng, d=None, n=None):
    # smooth data (the domain is deterministic computer models): white noise
    # would blow up the interpolation weights on dense 1-D designs
    d = d if d is not None else int(rng.integers(1, 7))
    n = n if n is not None else int(rng.integers(d + 3, 61))
    X = _random_design(rng, n, d)
    y = np.sin(X @ rng.uniform(0.5, 2.0, d)) + 0.4 * np.cos(X @ rng.uniform(0.3, 1.5, d))
    hyper = CovarianceHyperparams(
        sigma2=float(rng.uniform(0.3, 3.0)),
        ranges=rng.uniform(0.5, 2.5, d),
    )
    return GpModel(X, y, hyper)


class TestMaternCorrelation:
    def test_zero_lag(self):
        assert matern52_corr(0.0) == 1.0

    def test_value_at_one(self):
        assert matern52_corr(1.0) == pytest.approx(_M52_AT_1, abs=1e-15)

    def test_monotone_decay_to_zero(self):
        h = np.linspace(0, 30, 4000)
        k = matern52_corr(h)
        assert np.all(np.diff(k) <= 1e-15)
        assert k[-1] < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            matern52_corr(-0.1)


def _corr(x, y, ranges):
    # the scaled-distance correlation between two points, as GpModel builds it
    return float(_corr_matrix(np.array([x]), np.array([y]), np.asarray(ranges))[0, 0])


class TestCovariance:
    def test_variance_at_zero_lag(self):
        x = [0.3, -0.7]
        assert 2.5 * _corr(x, x, [1.0, 3.0]) == pytest.approx(2.5, abs=1e-14)

    def test_anisotropic_scaling_invariance(self):
        rng = substream(0, "cov")
        for _ in range(20):
            x, y = rng.normal(size=2)
            c = float(rng.uniform(0.5, 4.0))
            a = _corr([x, 0.0], [y, 0.0], [1.3, 0.7])
            b = _corr([x * c, 0.0], [y * c, 0.0], [1.3 * c, 0.7])
            assert a == pytest.approx(b, rel=1e-12)

    def test_1d_reduces_to_matern(self):
        assert _corr([0.0], [2.0], [2.0]) == pytest.approx(_M52_AT_1, abs=1e-14)


class TestKrigingPosterior:
    def test_interpolation_and_variance_floor(self):
        rng = substream(1, "gp")
        for _ in range(10):
            m = _random_model(rng)
            mean, var = m.predict(m.design_points)
            scale = np.max(np.abs(m.design_values)) + 1e-12
            assert np.max(np.abs(mean - m.design_values)) <= 1e-6 * scale
            # <= nugget, up to float roundoff of the quadratic forms
            assert np.max(var) <= (m.jitter + 1e-13) * m.hyper.sigma2

    def test_shift_equivariance(self):
        rng = substream(2, "gp")
        m = _random_model(rng, d=2, n=20)
        c = 11.25
        m2 = GpModel(m.design_points, m.design_values + c, m.hyper)
        x = rng.uniform(-2, 2, (15, 2))
        mean1, var1 = m.predict(x)
        mean2, var2 = m2.predict(x)
        np.testing.assert_allclose(mean2, mean1 + c, atol=1e-9)
        np.testing.assert_allclose(var2, var1, atol=1e-12)

    def test_far_field_reversion(self):
        rng = substream(3, "gp")
        m = _random_model(rng, d=2, n=12)
        far = np.full((1, 2), 100.0)  # >= 20 ranges away
        mean, var = m.predict(far)
        # the GLS mean 1'R^-1 y / 1'R^-1 1, from a dense solve
        R = _corr_matrix(m.design_points, m.design_points, m.hyper.ranges)
        R[np.diag_indices(len(R))] += m.jitter
        rinv_one = np.linalg.solve(R, np.ones(len(R)))
        gls_mean = float(rinv_one @ m.design_values) / float(rinv_one.sum())
        assert mean[0] == pytest.approx(gls_mean, abs=1e-8)
        assert var[0] >= m.hyper.sigma2

    def test_posterior_cov_psd_on_5_point_sets(self):
        rng = substream(4, "gp")
        for _ in range(20):
            m = _random_model(rng)
            Z = rng.uniform(-2.5, 2.5, (5, m.dim))
            K = m.posterior_cov(Z, Z)
            np.testing.assert_allclose(K, K.T, atol=1e-10)
            eig = np.linalg.eigvalsh(0.5 * (K + K.T))
            assert eig.min() >= -1e-8 * max(np.trace(K), 1e-300)

    def test_posterior_cov_blocks_change_no_bit(self, kernel_threads):
        # the whole-matrix formula; the model builds it in row blocks
        # (300 columns: blocks of 109 rows) and shares one side when Xb is Xa
        rng = substream(9, "gp-blocks")
        m = _random_model(rng, d=3, n=40)
        U = rng.uniform(-2.5, 2.5, (300, 3))
        V = rng.uniform(-2.5, 2.5, (50, 3))

        def whole(A, B):
            ranges = m.hyper.ranges
            ra = _corr_matrix(A, m.design_points, ranges)
            rb = _corr_matrix(B, m.design_points, ranges)
            cross = ra @ _chol_solve(m._factor, rb.T)
            da = 1.0 - ra @ m._rinv_one
            db = 1.0 - rb @ m._rinv_one
            return m.hyper.sigma2 * (_corr_matrix(A, B, ranges) - cross
                                     + np.outer(da, db) / m._one_rinv_one)

        for n in (1, 2):
            kernel_threads(n)
            assert m.posterior_cov(U, U).tobytes() == whole(U, U.copy()).tobytes()
            assert m.posterior_cov(U, V).tobytes() == whole(U, V).tobytes()
            assert m.posterior_cov(V, U).tobytes() == whole(V, U).tobytes()

    def test_one_point_update_consistency(self):
        # conditioning on one more observation is the rank-1 Gaussian update;
        # the observation carries the factorization nugget
        rng = substream(5, "gp")
        for _ in range(20):
            m = _random_model(rng)
            x = rng.uniform(-2, 2, m.dim)
            x_new = rng.uniform(-2, 2, m.dim)
            mu_x, v_x = m.predict(x)
            mu_n, v_n = m.predict(x_new)
            v_eff = v_n + m.jitter * m.hyper.sigma2
            k = m.posterior_cov(x[None, :], x_new[None, :])[0, 0]
            y_new = float(rng.normal())
            m2 = GpModel(np.vstack([m.design_points, x_new]), np.append(m.design_values, y_new),
                         m.hyper)
            mu2, v2 = m2.predict(x)
            assert mu2 == pytest.approx(mu_x + k / v_eff * (y_new - mu_n), abs=1e-8)
            assert v2 == pytest.approx(v_x - k * k / v_eff, abs=1e-8)

    def test_cross_sd_cases(self):
        rng = substream(6, "gp")
        m = _random_model(rng, d=2, n=15)
        x = rng.uniform(-2, 2, 2)
        _, v_x = m.predict(x)
        # x_new = x: Cauchy-Schwarz equality
        floor = model_var_floor(m)
        assert m.cross_sd(x, x, floor) == pytest.approx(math.sqrt(v_x), rel=1e-8)
        # x_new at a design point: no residual information
        assert m.cross_sd(x, m.design_points[0], floor) == 0.0
        # bound s_n <= sigma_n(x)
        for _ in range(50):
            a = rng.uniform(-2.5, 2.5, 2)
            b = rng.uniform(-2.5, 2.5, 2)
            _, va = m.predict(a)
            assert m.cross_sd(a, b, floor) <= math.sqrt(va) + 1e-10


class TestReml:
    def test_gradient_matches_finite_differences(self):
        rng = substream(7, "gp")
        for _ in range(8):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(d + 4, 25))
            X = rng.uniform(-2, 2, (n, d))
            y = rng.standard_normal(n)
            lr = np.log(rng.uniform(0.4, 2.0, d))
            nsd = _neg_sq_diffs(X)
            _, _, s2 = reml_objective(X, y, lr, neg_sq_diffs=nsd, sigma2_bounds=_bounds(y))
            # the fit's bounds, then bounds that clip sigma2 to a constant
            for bounds in (_bounds(y), (0.25 * s2, 0.5 * s2), (2.0 * s2, 4.0 * s2)):
                _, g, _ = reml_objective(X, y, lr, neg_sq_diffs=nsd, sigma2_bounds=bounds)
                eps = 1e-5
                for i in range(d):
                    def f_at(delta, _i=i, _bounds=bounds):
                        lr_d = lr.copy()
                        lr_d[_i] += delta
                        return reml_objective(X, y, lr_d, neg_sq_diffs=nsd,
                                              sigma2_bounds=_bounds)[0]

                    # 4th-order central difference: stiff cases need the extra order
                    fd = (8 * (f_at(eps) - f_at(-eps))
                          - (f_at(2 * eps) - f_at(-2 * eps))) / (12 * eps)
                    assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-10)

    def test_range_recovery_simulation_study(self):
        # data simulated from the model itself; >= 80% of seeds recover the
        # log-range within +-0.3
        from failprob.gp import _corr_matrix

        true_range = 0.5
        hits = 0
        seeds = 50
        for s in range(seeds):
            rng = substream(1000 + s, "recover")
            X = rng.uniform(0, 5, (200, 1))
            R = 2.0 * _corr_matrix(X, X, np.array([true_range])) + 1e-10 * np.eye(200)
            y = np.linalg.cholesky(R) @ rng.standard_normal(200)
            hyper = fit_reml(X, y, n_starts=3, rng=rng)
            hits += abs(math.log(hyper.ranges[0]) - math.log(true_range)) < 0.3
        assert hits >= 0.8 * seeds

    def test_constant_data_hits_floor(self):
        X = np.linspace(0, 1, 8)[:, None]
        y = np.full(8, 3.3)
        hyper = fit_reml(X, y, np.random.default_rng(0), n_starts=5)
        assert 0.0 < hyper.sigma2 < 1e-10

    def test_likelihood_scaling_identity(self):
        rng = substream(8, "gp")
        X = rng.uniform(-1, 1, (12, 2))
        y = rng.standard_normal(12)
        c = 7.0
        lr = np.array([0.2, -0.3])
        nsd = _neg_sq_diffs(X)
        f1, _, s1 = reml_objective(X, y, lr, neg_sq_diffs=nsd, sigma2_bounds=_bounds(y))
        f2, _, s2 = reml_objective(X, c * y, lr, neg_sq_diffs=nsd, sigma2_bounds=_bounds(c * y))
        n = 12
        assert f2 == pytest.approx(f1 + (n - 1) * math.log(c), rel=1e-12)
        assert s2 == pytest.approx(c * c * s1, rel=1e-12)

    def test_fitted_scaling(self):
        rng = substream(9, "gp")
        X = rng.uniform(-2, 2, (25, 1))
        y = np.sin(2 * X[:, 0]) + 0.1 * rng.standard_normal(25)
        h1 = fit_reml(X, y, np.random.default_rng(0), n_starts=3)
        h2 = fit_reml(X, 10 * y, np.random.default_rng(0), n_starts=3)
        assert h2.sigma2 / h1.sigma2 == pytest.approx(100.0, rel=1e-2)
        np.testing.assert_allclose(h2.ranges, h1.ranges, rtol=1e-2)

    def test_degenerate_design_rejected(self):
        X = np.array([[0.0], [0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="duplicate"):
            fit_reml(X, np.arange(4.0), np.random.default_rng(0), n_starts=5)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_reml(np.zeros((2, 2)) + np.arange(2)[:, None], np.arange(2.0),
                     np.random.default_rng(0), n_starts=5)


def _full_reml(X, y, log_params):
    """Reference: the negative restricted log-likelihood in all d + 1
    log-parameters (log sigma2, log rho_1, ..., log rho_d), from numpy's
    dense solve and log-determinant; also returns the GLS quadratic form Q."""
    n = X.shape[0]
    sigma2, ranges = math.exp(log_params[0]), np.exp(log_params[1:])
    R = matern52_corr(cdist(X / ranges, X / ranges)) + DEFAULT_JITTER * np.eye(n)
    ones = np.ones(n)
    v = np.linalg.solve(R, ones)
    resid = y - (v @ y) / (ones @ v)
    Q = resid @ np.linalg.solve(R, resid)
    logdet = np.linalg.slogdet(R)[1]
    nll = 0.5 * ((n - 1) * math.log(2 * math.pi * sigma2) + logdet + math.log(ones @ v)
                 + Q / sigma2)
    return nll, Q


def _full_box(X, y):
    """fit_reml's box in all d + 1 log-parameters, the variance bounds first."""
    span = X.max(axis=0) - X.min(axis=0)
    s2y = float(np.var(y, ddof=1))
    lb = np.concatenate([[math.log(1e-10 * s2y)], np.log(1e-3 * span)])
    ub = np.concatenate([[math.log(1e6 * s2y)], np.log(1e3 * span)])
    return lb, ub


class TestProfiledReml:
    """The objective of the d log-ranges against the full ReML likelihood."""

    def test_nll_is_the_minimum_over_sigma2(self):
        rng = substream(12, "gp-profile")
        for _ in range(10):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(d + 4, 30))
            X = _random_design(rng, n, d)
            y = np.sin(X @ rng.uniform(0.5, 2.0, d)) + 0.1 * rng.standard_normal(n)
            lr = np.log(rng.uniform(0.4, 2.0, d))
            nsd = _neg_sq_diffs(X)
            nll, _, sigma2 = reml_objective(X, y, lr, neg_sq_diffs=nsd, sigma2_bounds=_bounds(y))
            _, Q = _full_reml(X, y, np.concatenate([[0.0], lr]))
            s2_hat = Q / (n - 1)
            assert sigma2 == pytest.approx(s2_hat, rel=1e-8)
            at_min = _full_reml(X, y, np.concatenate([[math.log(s2_hat)], lr]))[0]
            assert nll == pytest.approx(at_min, rel=1e-9, abs=1e-9)
            for step in (-0.1, -1e-3, 1e-3, 0.1):
                assert _full_reml(X, y, np.concatenate([[math.log(s2_hat) + step], lr]))[0] > at_min
            # a bound that binds: the full likelihood at that bound
            for lo, hi in ((2.0 * s2_hat, 3.0 * s2_hat), (s2_hat / 3.0, s2_hat / 2.0)):
                nll_c, _, s2_c = reml_objective(X, y, lr, neg_sq_diffs=nsd, sigma2_bounds=(lo, hi))
                want = lo if s2_hat < lo else hi
                assert s2_c == want
                at_bound = _full_reml(X, y, np.concatenate([[math.log(want)], lr]))[0]
                assert nll_c == pytest.approx(at_bound, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("d, n, freq", [(1, 12, 3.0), (2, 20, 1.0), (3, 30, 1.0)])
    def test_fit_matches_full_likelihood_minimizer(self, d, n, freq):
        # oracle: scipy's minimize over all d + 1 log-parameters of the full
        # likelihood, from fit_reml's starts with sigma2 started at var(y).
        # The designs have a well-determined optimum: on 12 points of the
        # smooth 1-D function (freq 1) the likelihood is a flat ridge toward
        # long ranges, and the two stop 0.12 apart, the fit 9e-4 lower in nll
        rng = substream(n, "gp-profile-fit")
        X = _random_design(rng, n, d)
        y = (np.sin(freq * X @ rng.uniform(0.5, 2.0, d))
             + 0.4 * np.cos(freq * X @ rng.uniform(0.3, 1.5, d)))
        hyper = fit_reml(X, y, substream(n, "gp-profile-starts"), n_starts=3)
        lb, ub = _full_box(X, y)
        _, _, range_starts = _reml_starts(X, y, substream(n, "gp-profile-starts"), n_starts=3)
        best = None
        for start in range_starts:
            x0 = np.concatenate([[math.log(np.var(y, ddof=1))], start])
            res = minimize(lambda p: _full_reml(X, y, p)[0], x0, method="L-BFGS-B",
                           bounds=list(zip(lb, ub)), options={"ftol": 1e-15, "gtol": 1e-9})
            if best is None or res.fun < best.fun:
                best = res
        got = np.concatenate([[math.log(hyper.sigma2)], np.log(hyper.ranges)])
        assert hyper.converged
        assert _full_reml(X, y, got)[0] <= best.fun + 1e-9
        np.testing.assert_allclose(got, best.x, rtol=0.0, atol=1e-3)


def _dcorr_over_h(h):
    """kappa'(h)/h; smooth through h = 0 where it equals -10/3."""
    t = math.sqrt(10.0) * h
    return -(10.0 / 3.0) * (1.0 + t) * np.exp(-t)


def _loop_reml_objective(design_points, design_values, log_ranges, sigma2_bounds,
                         jitter: float = DEFAULT_JITTER):
    """reml_objective with one gradient pass per range: the reference for
    the batched gradient."""
    X = np.atleast_2d(np.asarray(design_points, dtype=float))
    y = np.asarray(design_values, dtype=float).reshape(-1)
    ranges = np.exp(np.asarray(log_ranges, dtype=float))
    n, d = X.shape
    lo, hi = sigma2_bounds

    Z = X / ranges
    H = cdist(Z, Z)
    R = matern52_corr(H)
    R[np.diag_indices(n)] += jitter
    try:
        c = _chol(R)
    except np.linalg.LinAlgError:
        return 1e14, np.zeros(d), hi
    logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
    ones = np.ones(n)
    v = _chol_solve(c, ones)
    oro = float(ones @ v)
    mu = float(v @ y) / oro
    resid = y - mu
    a = _chol_solve(c, resid)
    Q = float(resid @ a)
    sigma2 = min(max(Q / (n - 1), lo), hi)

    nll = 0.5 * ((n - 1) * gp._LOG_2PI + (n - 1) * math.log(sigma2) + logdet + math.log(oro)
                 + Q / sigma2)

    grad = np.empty(d)
    Rinv = _chol_solve(c, np.eye(n))
    G = _dcorr_over_h(H)
    for k in range(d):
        Dk2 = (X[:, k, None] - X[None, :, k]) ** 2
        Rdot = G * (-Dk2 / ranges[k] ** 3)
        tr = float(np.sum(Rinv * Rdot))
        d_oro = -float(v @ Rdot @ v) / oro
        d_quad = -float(a @ Rdot @ a)
        grad[k] = 0.5 * (tr + d_oro + d_quad / sigma2) * ranges[k]
    return nll, grad, sigma2


class TestBatchedRemlGradient:
    """The batched gradient and the per-fit squared differences change no bit."""

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 8])
    def test_same_bits_as_per_range_loop(self, monkeypatch, d):
        # the reference takes each v' Rdot_k v and a' Rdot_k a on its own;
        # reml_objective takes their first products batched over k. Designs
        # smaller than the fit's n >= d + 2 are included: the objective
        # takes any n
        rng = substream(d, "reml-bits")
        for n in range(3, 81):
            X = _random_design(rng, n, d, lo=-4.0, hi=4.0)
            y = np.sin(X @ rng.uniform(0.5, 2.0, d)) + 0.1 * rng.standard_normal(n)
            nsd = _neg_sq_diffs(X)
            lr = rng.uniform(-2.0, 3.0, d)
            # jitter -1 zeroes the correlation diagonal: the sentinel path
            for jitter in (DEFAULT_JITTER, -1.0):
                monkeypatch.setattr(gp, "DEFAULT_JITTER", jitter)
                ref = _loop_reml_objective(X, y, lr, _bounds(y), jitter)
                nll, grad, sigma2 = reml_objective(X, y, lr, neg_sq_diffs=nsd,
                                                   sigma2_bounds=_bounds(y))
                assert float(nll).hex() == float(ref[0]).hex()
                assert grad.tobytes() == ref[1].tobytes()
                assert sigma2.hex() == ref[2].hex()

    @pytest.mark.parametrize("d, n", [(1, 12), (2, 20), (6, 40)])
    def test_fit_reml_same_as_loop_objective(self, monkeypatch, d, n):
        rng = substream(n, "reml-fit")
        X = _random_design(rng, n, d)
        y = np.sin(X @ rng.uniform(0.5, 2.0, d)) + 0.4 * np.cos(X @ rng.uniform(0.3, 1.5, d))
        hyper = fit_reml(X, y, rng=substream(n, "starts"), n_starts=5)
        monkeypatch.setattr(gp, "reml_objective",
                            lambda X, y, lr, neg_sq_diffs, sigma2_bounds:
                            _loop_reml_objective(X, y, lr, sigma2_bounds))
        ref = fit_reml(X, y, rng=substream(n, "starts"), n_starts=5)
        assert hyper.sigma2.hex() == ref.sigma2.hex()
        assert hyper.ranges.tobytes() == ref.ranges.tobytes()
        assert hyper.converged == ref.converged

    def test_fit_reml_calls_the_module_objective(self, monkeypatch):
        # The benchmark's tracer counts ReML objective calls by replacing
        # failprob.gp.reml_objective: fit_reml must look it up there on every
        # call it makes. A point L-BFGS-B asks for again is answered
        # from the fit's memo, so the objective sees each distinct point once.
        seen, asked = [], []
        real_objective = gp.reml_objective

        def counting_objective(X, y, lr, *, neg_sq_diffs, sigma2_bounds):
            seen.append(lr.tobytes())
            return real_objective(X, y, lr, neg_sq_diffs=neg_sq_diffs,
                                  sigma2_bounds=sigma2_bounds)

        monkeypatch.setattr(gp, "reml_objective", counting_objective)
        monkeypatch.setattr(gp, "_lbfgsb", _asking_lbfgsb(asked))
        X, y = _abnormal_case()
        fit_reml(X, y, substream(1, "reml-memo-starts"), n_starts=3)
        assert len(seen) == len(set(seen)) == len(set(asked)) > 0


def _asking_lbfgsb(asked):
    """gp._lbfgsb, appending the bytes of each point it asks for to `asked`."""
    real_lbfgsb = gp._lbfgsb

    def lbfgsb(objective, *args):
        def asking(lr):
            asked.append(lr.tobytes())
            return objective(lr)

        return real_lbfgsb(asking, *args)

    return lbfgsb


def _abnormal_case():
    """A design on which the first of three ReML starts ends ABNORMAL in
    L-BFGS-B's line search (scipy 1.17), which asks again for points it has
    already evaluated."""
    rng = substream(1, "reml-memo")
    X = rng.uniform(-2.0, 2.0, (30, 2))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + 0.01 * rng.standard_normal(30)
    return X, y


@requires_scipy_117
def test_reml_memo_keeps_the_bits(monkeypatch):
    # the fit answers L-BFGS-B's repeats from its memo and returns the
    # bits it returned when every request ran the objective; L-BFGS-B's
    # iterates depend on the scipy version, hence the pin
    asked = []
    monkeypatch.setattr(gp, "_lbfgsb", _asking_lbfgsb(asked))
    X, y = _abnormal_case()
    hyper = fit_reml(X, y, substream(1, "reml-memo-starts"), n_starts=3)
    assert len(asked) > len(set(asked))
    assert hyper.sigma2.hex() == "0x1.f58abcab3dd4ep+17"
    assert [r.hex() for r in hyper.ranges] == ["0x1.526a0593ab733p+4", "0x1.57abebab581c2p+6"]
    assert hyper.converged is True


def _memoized_objective(X, y):
    """fit_reml's memoized objective for one design, and the list of the
    points it is asked for."""
    neg_sq_diffs = _neg_sq_diffs(X)
    memo, asked = {}, []

    def objective(lr):
        asked.append(lr.tobytes())
        key = lr.tobytes()
        if key not in memo:
            memo[key] = reml_objective(X, y, lr, neg_sq_diffs=neg_sq_diffs,
                                       sigma2_bounds=_bounds(y))
        nll, grad, _ = memo[key]
        return nll, grad.copy()

    return objective, asked


def _reml_starts(X, y, rng, n_starts):
    """fit_reml's box and its starts without `init`: the span, then random ranges."""
    d = X.shape[1]
    span = X.max(axis=0) - X.min(axis=0)
    lb = np.log(1e-3 * span)
    ub = np.log(1e3 * span)
    starts = [np.log(span / 2.0)]
    while len(starts) < n_starts:
        starts.append(np.log(span) + rng.uniform(math.log(0.1), math.log(10.0), size=d))
    return lb, ub, [np.clip(s, lb + 1e-9, ub - 1e-9) for s in starts]


@requires_scipy_117
class TestLbfgsbLoop:
    """Oracle: gp._lbfgsb takes the iterates of scipy 1.17's
    minimize(method="L-BFGS-B") on the same memoized objective."""

    def _compare(self, X, y, lb, ub, x0, maxiter):
        objective, asked = _memoized_objective(X, y)
        x, f, success = gp._lbfgsb(objective, x0, lb, ub, maxiter)
        objective_ref, asked_ref = _memoized_objective(X, y)
        res = minimize(objective_ref, x0, jac=True, method="L-BFGS-B",
                       bounds=list(zip(lb, ub)), options={"maxiter": maxiter})
        assert x.tobytes() == res.x.tobytes()
        assert float(f).hex() == float(res.fun).hex()
        assert success == res.success
        assert set(asked) == set(asked_ref)
        return res, asked_ref

    @pytest.mark.parametrize("d", [1, 2, 6])
    @pytest.mark.parametrize("n", [8, 30, 53])
    def test_same_iterates_as_minimize(self, n, d):
        rng = substream(10 * n + d, "lbfgsb-oracle")
        X = _random_design(rng, n, d)
        y = np.sin(X @ rng.uniform(0.5, 2.0, d)) + 0.4 * np.cos(X @ rng.uniform(0.3, 1.5, d))
        lb, ub, starts = _reml_starts(X, y, rng, n_starts=3)
        for x0 in starts:
            self._compare(X, y, lb, ub, x0, gp.REML_MAXITER)

    def test_abnormal_line_search(self):
        X, y = _abnormal_case()
        lb, ub, starts = _reml_starts(X, y, substream(1, "reml-memo-starts"), n_starts=1)
        res, asked = self._compare(X, y, lb, ub, starts[0], gp.REML_MAXITER)
        # the line search gave up and asked again for points it had evaluated
        assert str(res.message).startswith("ABNORMAL") and len(asked) > len(set(asked))

    def test_stop_on_maxiter(self):
        X, y = _abnormal_case()
        lb, ub, starts = _reml_starts(X, y, substream(1, "reml-memo-starts"), n_starts=3)
        res, _ = self._compare(X, y, lb, ub, starts[1], 3)
        assert res.nit == 3 and res.status == 1 and not res.success


@pytest.mark.usefixtures("setulb_of_another_scipy")
def test_setulb_of_another_scipy_is_named():
    # the fit names the installed scipy instead of raising a bare TypeError
    rng = substream(0, "setulb")
    X = _random_design(rng, 8, 1)
    with pytest.raises(RuntimeError) as info:
        fit_reml(X, np.sin(X[:, 0]), rng, n_starts=1)
    assert str(info.value).startswith(f"scipy {scipy.__version__}: ")
    assert "scipy >= 1.15" in str(info.value)
    assert isinstance(info.value.__cause__, TypeError)


def _spd_matrices(n):
    """A Matern correlation matrix with the default jitter (the GP's own
    kind: ill-conditioned) and a well-conditioned A A' + n I, both seeded."""
    rng = substream(n, "spd")
    X = _random_design(rng, n, 3)
    R = _corr_matrix(X, X, np.array([0.7, 1.1, 1.6]))
    R[np.diag_indices(n)] += 1e-10
    A = rng.standard_normal((n, n))
    return [R, A @ A.T + n * np.eye(n)]


class TestLapackHelpers:
    """_chol / _chol_solve call the LAPACK routines inside scipy's
    cho_factor / cho_solve: same bits, same error contract."""

    @pytest.mark.parametrize("n", [5, 30, 60])
    def test_bitwise_equal_to_scipy(self, n):
        rng = substream(n, "rhs")
        wide = rng.standard_normal((2000, n))
        for R in _spd_matrices(n):
            R_in = R.copy()
            c = _chol(R)
            c_ref, lower = cho_factor(R, lower=True)
            assert lower and c.tobytes() == c_ref.tobytes()
            assert R.tobytes() == R_in.tobytes()  # the input is not overwritten
            # a vector, the identity, and 2000 columns in both memory orders
            # (predict passes the transposed (2000, n) cross-correlations)
            for b in (rng.standard_normal(n), np.eye(n), wide.T, np.ascontiguousarray(wide.T)):
                x = _chol_solve(c, b)
                x_ref = cho_solve((c_ref, True), b)
                assert x.shape == x_ref.shape
                assert x.tobytes() == x_ref.tobytes()

    def test_not_positive_definite(self):
        R = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
            _chol(R)
        with pytest.raises(np.linalg.LinAlgError):
            cho_factor(R, lower=True)

    def test_reml_objective_sentinel_when_not_positive_definite(self, monkeypatch):
        # a jitter of -1 zeroes the correlation diagonal: potrf fails at once
        monkeypatch.setattr(gp, "DEFAULT_JITTER", -1.0)
        rng = substream(11, "gp")
        X = _random_design(rng, 10, 2)
        y = np.sin(X[:, 0])
        nll, grad, sigma2 = reml_objective(X, y, np.zeros(2), neg_sq_diffs=_neg_sq_diffs(X),
                                           sigma2_bounds=(1e-3, 1e3))
        assert nll == 1e14
        assert grad.tobytes() == np.zeros(2).tobytes()
        assert sigma2 == 1e3

    def test_nonfinite_inputs_raise_value_error(self):
        R = _spd_matrices(5)[1]
        c = _chol(R)
        for bad in (np.nan, np.inf):
            R_bad = R.copy()
            R_bad[2, 3] = R_bad[3, 2] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                _chol(R_bad)
            b = np.ones(5)
            b[4] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                _chol_solve(c, b)

    def test_nan_in_observations_raises_value_error(self):
        rng = substream(12, "gp")
        X = _random_design(rng, 8, 2)
        y = np.cos(X[:, 1])
        y[3] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            GpModel(X, y, CovarianceHyperparams(1.0, np.array([1.0, 1.0])))
