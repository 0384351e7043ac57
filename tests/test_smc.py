"""SMC transitions: reweighting, residual resampling, adaptive RWMH."""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as spstats

from failprob.core import substream
from failprob.smc import (
    LOG_STEP_DELTA,
    TARGET_ACCEPTANCE,
    DegenerateWeightsError,
    RwmhState,
    residual_resample,
    reweight,
    rwmh_move,
)


class TestReweight:
    def test_identity_ratio_keeps_weights(self):
        lg = np.linspace(-1, 0, 16)
        w = reweight(lg, lg)
        np.testing.assert_allclose(w, np.full(16, 1.0 / 16), atol=1e-12)
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_indicator_case_zeroes_outsiders(self):
        # classical subset simulation: survivors uniform, others zero
        m = 10
        inside = np.array([1, 1, 0, 0, 1, 0, 1, 1, 0, 0], dtype=bool)
        log_new = np.where(inside, 0.0, -np.inf)
        w = reweight(log_new, np.zeros(m))
        np.testing.assert_allclose(w[inside], 1.0 / inside.sum(), atol=1e-12)
        np.testing.assert_array_equal(w[~inside], 0.0)

    def test_hand_normalization(self):
        m = 8
        ratios = np.array([0.2] * 4 + [0.8] * 4)
        w = reweight(np.log(ratios), np.zeros(m))
        np.testing.assert_allclose(w[:4], 0.2 / (4 * 0.2 + 4 * 0.8), atol=1e-12)
        np.testing.assert_allclose(w[4:], 0.8 / (4 * 0.2 + 4 * 0.8), atol=1e-12)
        # the uniform prior weight 1/m cancels: the ratio alone sets the weights
        np.testing.assert_allclose(reweight(np.log(ratios) - 3.0, np.full(m, -3.0)), w,
                                   rtol=1e-12)

    def test_total_degeneracy_raises(self):
        with pytest.raises(DegenerateWeightsError):
            reweight(np.full(4, -np.inf), np.zeros(4))

    def test_nonfinite_old_g_rejected(self):
        with pytest.raises(ValueError):
            reweight(np.zeros(4), np.array([0.0, -np.inf, 0.0, 0.0]))


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
        assert len(diag.acceptance) == state2.sweeps == 10

    def test_step_adaptation_arithmetic(self):
        # flat target: every proposal accepted, abar = 1 > target, so the log
        # step grows by delta/1, then delta/2, ...
        def flat(X):
            return np.zeros(X.shape[0]), {}

        d = 3
        state = replace(RwmhState.initial(np.ones(d)), sweeps=4)
        rng = substream(6, "move")
        pts = rng.standard_normal((50, d))
        _, _, state2, diag = rwmh_move(pts, flat, state, rng)
        want = state.log_sigma + LOG_STEP_DELTA * (1.0 + 1 / 2 + 1 / 3 + 1 / 4)
        np.testing.assert_allclose(state2.log_sigma, want, atol=1e-12)
        assert diag.acceptance == [1.0] * 4

    def test_state_persists_across_stages(self):
        d = 2
        state = RwmhState.initial(np.ones(d))
        rng = substream(7, "move")
        pts = rng.standard_normal((100, d))
        _, _, s1, _ = rwmh_move(pts, _gaussian_target, state, rng)
        _, _, s2, _ = rwmh_move(pts, _gaussian_target, s1, rng)
        assert s2.sweeps == s1.sweeps == state.sweeps
        assert not np.allclose(s1.log_sigma, state.log_sigma)

    def test_initial_scale_default(self):
        sds = np.array([2.0, 0.5, 1.0, 4.0])
        state = RwmhState.initial(sds)
        np.testing.assert_allclose(np.exp(state.log_sigma), 2.0 / math.sqrt(4) * sds, rtol=1e-12)

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

        state = RwmhState(log_sigma=np.array([math.log(0.8)]), sweeps=50)
        out, _, _, _ = rwmh_move(pts, target, state, rng, adapt=False)
        x = out[:, 0]

        def mix_cdf(z):
            return 0.5 * spstats.norm.cdf(z, -2, 0.5) + 0.5 * spstats.norm.cdf(z, 2, 0.5)

        edges = np.concatenate([[-np.inf], np.linspace(-4, 4, 25), [np.inf]])
        probs = np.diff([mix_cdf(e) for e in edges])
        observed = np.histogram(x, bins=np.concatenate([[-1e9], edges[1:-1], [1e9]]))[0]
        chi2 = spstats.chisquare(observed, probs * m)
        assert chi2.pvalue > 0.001


def _serial_move(points, log_target, state, rng, current=None, adapt=True):
    # the move as a plain loop, every draw made where it is used: the
    # reference for the draw-ahead kernel
    pts = np.array(points, dtype=float)
    m, d = pts.shape
    logp, aux = log_target(pts) if current is None else current
    logp = np.array(logp, dtype=float)
    aux = {k: np.array(v) for k, v in aux.items()}
    log_sigma = state.log_sigma.copy()
    acceptance, steps = [], []
    for s in range(1, state.sweeps + 1):
        proposal = pts + np.exp(log_sigma)[None, :] * rng.standard_normal((m, d))
        logp_prop, aux_prop = log_target(proposal)
        with np.errstate(over="ignore"):
            accept_prob = np.minimum(1.0, np.exp(logp_prop - logp))
        accept_prob = np.where(np.isneginf(logp_prop), 0.0, accept_prob)
        acc = rng.random(m) < accept_prob
        pts[acc] = proposal[acc]
        logp[acc] = logp_prop[acc]
        for key in aux:
            aux[key][acc] = aux_prop[key][acc]
        acceptance.append(float(accept_prob.mean()))
        if adapt:
            delta = LOG_STEP_DELTA / s
            log_sigma = log_sigma + (delta if acceptance[-1] > TARGET_ACCEPTANCE else -delta)
        steps.append(log_sigma.copy())
    return pts, logp, aux, log_sigma, acceptance, steps


def _shell_target(X):
    # a target with a hard edge (rejections at -inf) and an aux array
    r2 = np.sum(X * X, axis=1)
    lp = np.where(r2 > 1.0, -0.5 * r2, -np.inf)
    return lp, {"r2": r2}


def _shell_start(m, d, seed):
    z = substream(seed, "start").standard_normal((m, d))
    return 2.0 * z / np.linalg.norm(z, axis=1, keepdims=True)


class TestDrawAhead:
    """The move draws sweep s + 1's random numbers on the kernel pool while
    sweep s evaluates its target; that changes no bit of any output nor of
    the generator's final state, at any kernel thread count."""

    @staticmethod
    def _assert_same(ref, out, rng_ref, rng):
        pts, (logp, aux), state, diag = out
        np.testing.assert_array_equal(pts, ref[0])
        np.testing.assert_array_equal(logp, ref[1])
        assert aux.keys() == ref[2].keys()
        for key in aux:
            np.testing.assert_array_equal(aux[key], ref[2][key])
        np.testing.assert_array_equal(state.log_sigma, ref[3])
        assert diag.acceptance == ref[4]
        assert len(diag.step_log_sigma) == len(ref[5])
        for a, b in zip(diag.step_log_sigma, ref[5]):
            np.testing.assert_array_equal(a, b)
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("adapt", [True, False])
    @pytest.mark.parametrize("m", [1, 300])
    def test_matches_serial_loop(self, kernel_threads, threads, adapt, m):
        kernel_threads(threads)
        d = 3
        pts = _shell_start(m, d, 11)
        state = replace(RwmhState.initial(np.ones(d)), sweeps=6)
        rng_ref, rng = substream(12, "move"), substream(12, "move")
        ref = _serial_move(pts, _shell_target, state, rng_ref, adapt=adapt)
        out = rwmh_move(pts, _shell_target, state, rng, adapt=adapt)
        self._assert_same(ref, out, rng_ref, rng)
        assert out[2].sweeps == 6

    @pytest.mark.parametrize("threads", [1, 2, 5])
    def test_multi_call_sequence_carries_state(self, kernel_threads, threads):
        # three stages on one generator, the later ones from cached values,
        # as the subset simulation driver calls the move; five threads on a
        # short switch interval stress the hand-over of the generator
        kernel_threads(threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self._three_stages()
        finally:
            sys.setswitchinterval(interval)

    def _three_stages(self):
        d = 2
        pts = _shell_start(200, d, 13)
        state = replace(RwmhState.initial(np.ones(d)), sweeps=4)
        rng_ref, rng = substream(14, "move"), substream(14, "move")
        pts_ref, current_ref = pts, None
        log_sigma = state.log_sigma
        current = None
        for _ in range(3):
            ref_state = RwmhState(log_sigma, state.sweeps)
            ref = _serial_move(pts_ref, _shell_target, ref_state, rng_ref, current_ref)
            out = rwmh_move(pts, _shell_target, state, rng, current)
            self._assert_same(ref, out, rng_ref, rng)
            pts_ref, current_ref, log_sigma = ref[0], (ref[1], ref[2]), ref[3]
            pts, current, state, _ = out

    def test_raising_target_leaves_generator_quiescent(self, kernel_threads):
        kernel_threads(2)

        class SweepTwo(Exception):
            pass

        raised = SweepTwo("sweep 2")
        calls = []

        def target(X):
            calls.append(X.shape)
            if len(calls) == 2:
                raise raised
            return _gaussian_target(X)

        m, d = 100_000, 6
        pts = np.zeros((m, d))
        rng = substream(15, "move")
        with pytest.raises(SweepTwo) as info:
            rwmh_move(pts, target, RwmhState.initial(np.ones(d)), rng,
                      current=_gaussian_target(pts))
        assert info.value is raised
        before = rng.bit_generator.state
        time.sleep(0.2)
        assert rng.bit_generator.state == before
        # sweep 3's draw was pending when sweep 2 raised: it finished, and
        # nothing beyond it was drawn
        rng_ref = substream(15, "move")
        for _ in range(3):
            rng_ref.standard_normal((m, d))
            rng_ref.random(m)
        assert before == rng_ref.bit_generator.state
