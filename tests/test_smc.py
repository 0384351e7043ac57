"""SMC transitions: reweighting, residual resampling, adaptive RWMH."""

import math

import numpy as np
import pytest
from scipy import stats as spstats

from failprob.core import ParticleSystem, log_sum_exp, substream
from failprob.smc import (
    DegenerateWeightsError,
    RwmhConfig,
    RwmhState,
    residual_resample,
    reweight,
    rwmh_move,
)


def _uniform_particles(m, d=1, seed=0):
    rng = substream(seed, "particles")
    pts = rng.standard_normal((m, d))
    return ParticleSystem(pts, np.full(m, -math.log(m)), 0, np.zeros(m), np.zeros(m))


class TestReweight:
    def test_identity_ratio_keeps_weights(self):
        ps = _uniform_particles(16)
        lg = np.linspace(-1, 0, 16)
        out = reweight(ps, lg, lg)
        np.testing.assert_allclose(out.log_weights, ps.log_weights, atol=1e-12)
        assert abs(log_sum_exp(out.log_weights)) <= 1e-10

    def test_indicator_case_zeroes_outsiders(self):
        # classical subset simulation: survivors uniform, others zero
        m = 10
        ps = _uniform_particles(m)
        inside = np.array([1, 1, 0, 0, 1, 0, 1, 1, 0, 0], dtype=bool)
        log_new = np.where(inside, 0.0, -np.inf)
        out = reweight(ps, log_new, np.zeros(m))
        w = out.weights()
        np.testing.assert_allclose(w[inside], 1.0 / inside.sum(), atol=1e-12)
        np.testing.assert_allclose(w[~inside], 0.0, atol=1e-300)

    def test_hand_normalization(self):
        m = 8
        ps = _uniform_particles(m)
        ratios = np.array([0.2] * 4 + [0.8] * 4)
        out = reweight(ps, np.log(ratios), np.zeros(m))
        w = out.weights()
        np.testing.assert_allclose(w[:4], 0.2 / (4 * 0.2 + 4 * 0.8), atol=1e-12)
        np.testing.assert_allclose(w[4:], 0.8 / (4 * 0.2 + 4 * 0.8), atol=1e-12)

    def test_total_degeneracy_raises(self):
        ps = _uniform_particles(4)
        with pytest.raises(DegenerateWeightsError):
            reweight(ps, np.full(4, -np.inf), np.zeros(4))

    def test_nonfinite_old_g_rejected(self):
        ps = _uniform_particles(4)
        with pytest.raises(ValueError):
            reweight(ps, np.zeros(4), np.array([0.0, -np.inf, 0.0, 0.0]))


class TestResidualResample:
    def test_uniform_weights_identity_multiset(self):
        m = 32
        idx = residual_resample(np.full(m, 1.0 / m), substream(0, "r"))
        assert sorted(idx) == list(range(m))

    def test_integer_expectations(self):
        idx = residual_resample(np.array([0.5, 0.5, 0.0, 0.0]), substream(1, "r"))
        assert sorted(idx) == [0, 0, 1, 1]

    def test_floor_guarantee_and_total(self):
        rng = substream(2, "r")
        for _ in range(200):
            w = rng.dirichlet(np.ones(9))
            idx = residual_resample(w, rng)
            counts = np.bincount(idx, minlength=9)
            assert counts.sum() == 9
            assert np.all(counts >= np.floor(9 * w))

    def test_expected_counts(self):
        # m w = (2.5, 1.5, 0, 0): count of particle 0 is 2 + Bernoulli(1/2)
        w = np.array([0.625, 0.375, 0.0, 0.0])
        rng = substream(3, "r")
        n_rep = 100_000
        c0 = np.empty(n_rep)
        c1 = np.empty(n_rep)
        for i in range(n_rep):
            counts = np.bincount(residual_resample(w, rng), minlength=4)
            c0[i], c1[i] = counts[0], counts[1]
        assert set(np.unique(c0)) <= {2.0, 3.0}
        assert set(np.unique(c1)) <= {1.0, 2.0}
        se = c0.std(ddof=1) / math.sqrt(n_rep)
        assert abs(c0.mean() - 2.5) <= 3 * se
        assert abs(c0.mean() - 2.5) <= 0.02

    def test_unbiasedness_random_weights(self):
        rng = substream(4, "r")
        w = rng.dirichlet(np.ones(6))
        n_rep = 100_000
        counts = np.zeros(6)
        sq = np.zeros(6)
        for _ in range(n_rep):
            c = np.bincount(residual_resample(w, rng), minlength=6)
            counts += c
            sq += c.astype(float) ** 2
        mean = counts / n_rep
        var = sq / n_rep - mean ** 2
        se = np.sqrt(np.maximum(var, 1e-12) / n_rep)
        assert np.all(np.abs(mean - 6 * w) <= 3 * se + 1e-9)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            residual_resample(np.array([0.9, 0.3]), substream(0, "x"))


def _gaussian_target(X):
    lp = -0.5 * np.sum(X * X, axis=1) - 0.5 * X.shape[1] * math.log(2 * math.pi)
    return lp, {}


class TestRwmhMove:
    def test_gaussian_invariance(self):
        m, d = 10_000, 1
        rng = substream(5, "move")
        pts = rng.standard_normal((m, d))
        state = RwmhState.initial(np.ones(d))
        out, (logp, _), state2, diag = rwmh_move(pts, _gaussian_target, state, rng)
        ks = spstats.kstest(out[:, 0], "norm")
        assert ks.pvalue > 0.01
        assert state2.sweeps_done == 10

    def test_step_adaptation_arithmetic(self):
        # flat target: every proposal accepted, abar = 1 > target, so the log
        # step grows by delta/1, then delta/2, ...
        def flat(X):
            return np.zeros(X.shape[0]), {}

        d = 3
        cfg = RwmhConfig(sweeps=4)
        state = RwmhState.initial(np.ones(d), cfg)
        rng = substream(6, "move")
        pts = rng.standard_normal((50, d))
        _, _, state2, diag = rwmh_move(pts, flat, state, rng)
        delta = cfg.log_step_delta
        want = state.log_sigma + delta * (1.0 + 1 / 2 + 1 / 3 + 1 / 4)
        np.testing.assert_allclose(state2.log_sigma, want, atol=1e-12)
        assert diag.acceptance == [1.0] * 4

    def test_state_persists_across_stages(self):
        d = 2
        state = RwmhState.initial(np.ones(d))
        rng = substream(7, "move")
        pts = rng.standard_normal((100, d))
        _, _, s1, _ = rwmh_move(pts, _gaussian_target, state, rng)
        _, _, s2, _ = rwmh_move(pts, _gaussian_target, s1, rng)
        assert s2.sweeps_done == 20
        assert not np.allclose(s1.log_sigma, state.log_sigma)

    def test_initial_scale_default(self):
        sds = np.array([2.0, 0.5, 1.0, 4.0])
        state = RwmhState.initial(sds)
        np.testing.assert_allclose(state.step_sizes(), 2.0 / math.sqrt(4) * sds, rtol=1e-12)

    def test_aux_threading(self):
        # aux values stay consistent with the particle positions
        def target(X):
            return -0.5 * np.sum(X * X, axis=1), {"first": X[:, 0].copy()}

        rng = substream(8, "move")
        pts = rng.standard_normal((500, 2))
        state = RwmhState.initial(np.ones(2))
        out, (logp, aux), _, _ = rwmh_move(pts, target, state, rng)
        np.testing.assert_array_equal(aux["first"], out[:, 0])
        np.testing.assert_allclose(logp, -0.5 * np.sum(out * out, axis=1), atol=1e-12)

    def test_rejects_nonfinite_start(self):
        def target(X):
            return np.where(X[:, 0] > 0, 0.0, -np.inf), {}

        pts = np.array([[1.0], [-1.0]])
        with pytest.raises(ValueError):
            rwmh_move(pts, target, RwmhState.initial(np.ones(1)), substream(9, "x"))

    def test_bimodal_invariance_chi2(self):
        # 2-component Gaussian mixture target, exact i.i.d. start, 50 fixed-step
        # sweeps; chi-squared GOF on the moved population
        rng = substream(10, "move")
        m = 10_000
        comp = rng.random(m) < 0.5
        pts = np.where(comp, -2.0, 2.0)[:, None] + 0.5 * rng.standard_normal((m, 1))

        def target(X):
            x = X[:, 0]
            la = -0.5 * ((x + 2) / 0.5) ** 2
            lb = -0.5 * ((x - 2) / 0.5) ** 2
            return np.logaddexp(la, lb), {}

        cfg = RwmhConfig(sweeps=50)
        state = RwmhState(log_sigma=np.array([math.log(0.8)]), config=cfg)
        out, _, _, _ = rwmh_move(pts, target, state, rng, adapt=False)
        x = out[:, 0]

        def mix_cdf(z):
            return 0.5 * spstats.norm.cdf(z, -2, 0.5) + 0.5 * spstats.norm.cdf(z, 2, 0.5)

        edges = np.concatenate([[-np.inf], np.linspace(-4, 4, 25), [np.inf]])
        probs = np.diff([mix_cdf(e) for e in edges])
        observed = np.histogram(x, bins=np.concatenate([[-1e9], edges[1:-1], [1e9]]))[0]
        chi2 = spstats.chisquare(observed, probs * m)
        assert chi2.pvalue > 0.001
