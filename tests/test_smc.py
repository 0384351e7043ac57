"""SMC transitions: reweighting, residual resampling, adaptive RWMH."""

import math
import multiprocessing
import sys
import time

import numpy as np
import pytest
from conftest import AHEAD, draw_threads
from scipy import stats as spstats

from failprob import smc
from failprob.core import InputDistribution, substream
from failprob.smc import (
    LOG_STEP_DELTA,
    TARGET_ACCEPTANCE,
    DegenerateWeightsError,
    DrawStream,
    initial_log_steps,
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

    def test_nan_new_g_rejected(self):
        # not a zero weight: a ValueError that names the cause
        with pytest.raises(ValueError, match="NaN or [+]inf"):
            reweight(np.array([0.0, np.nan, 0.0, 0.0]), np.zeros(4))

    def test_inf_new_g_rejected(self):
        with pytest.raises(ValueError, match="NaN or [+]inf"):
            reweight(np.array([0.0, np.inf, 0.0, 0.0]), np.zeros(4))


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

    def test_nan_weight_rejected(self):
        # by the weight check, before any cast or draw
        with pytest.raises(ValueError, match="weights must be normalized"):
            residual_resample(np.array([0.5, np.nan, 0.5]), substream(0, "x"))


def _sq_norm(X):
    # sum of squares column by column: elementwise, so a row's bits do not
    # depend on which rows share the call
    out = X[:, 0] * X[:, 0]
    for k in range(1, X.shape[1]):
        out = out + X[:, k] * X[:, k]
    return out


def _gaussian_density(X):
    return -0.5 * _sq_norm(X) - 0.5 * X.shape[1] * math.log(2 * math.pi)


def _no_factor(X):
    return np.zeros(X.shape[0]), {}


def _start(density, factor, pts):
    lf, aux = factor(pts)
    return density(pts), lf, aux


def _move(pts, density, factor, log_sigma, rng, current=None):
    # one move on a draw stream of its own, closed before this returns
    draws = DrawStream(rng, *np.shape(pts))
    try:
        return rwmh_move(pts, density, factor, log_sigma, draws,
                         _start(density, factor, pts) if current is None else current)
    finally:
        draws.close()


def _bimodal_split(X):
    # log of 0.5 N(-2, 0.5^2) + 0.5 N(2, 0.5^2) up to a constant, as the larger
    # component's log kernel plus log 2 (the density) and a log factor <= 0
    x = X[:, 0]
    la = -0.5 * ((x + 2) / 0.5) ** 2
    lb = -0.5 * ((x - 2) / 0.5) ** 2
    top = np.maximum(la, lb) + math.log(2.0)
    return top, np.minimum(np.logaddexp(la, lb) - top, 0.0)


class TestRwmhMove:
    def test_gaussian_invariance(self):
        m, d = 10_000, 1
        rng = substream(5, "move")
        pts = rng.standard_normal((m, d))
        out, _, _, diag = _move(pts, _gaussian_density, _no_factor, initial_log_steps(np.ones(d)),
                                rng)
        ks = spstats.kstest(out[:, 0], "norm")
        assert ks.pvalue > 0.01
        assert len(diag.acceptance) == len(diag.acceptance_hi) == smc.SWEEPS == 10

    def test_step_adaptation_arithmetic(self, monkeypatch):
        # flat target: every proposal accepted, abar = 1 > target, so the log
        # step grows by delta/1, then delta/2, ...
        def flat(X):
            return np.zeros(X.shape[0])

        monkeypatch.setattr(smc, "SWEEPS", 4)
        d = 3
        log_sigma = initial_log_steps(np.ones(d))
        rng = substream(6, "move")
        pts = rng.standard_normal((50, d))
        _, _, log_sigma2, diag = _move(pts, flat, _no_factor, log_sigma, rng)
        want = log_sigma + LOG_STEP_DELTA * (1.0 + 1 / 2 + 1 / 3 + 1 / 4)
        np.testing.assert_allclose(log_sigma2, want, atol=1e-12)
        assert diag.acceptance == diag.acceptance_hi == [1.0] * 4
        assert diag.intervals() == [[1.0, 1.0]] * 4

    def test_state_persists_across_stages(self):
        d = 2
        s0 = initial_log_steps(np.ones(d))
        rng = substream(7, "move")
        pts = rng.standard_normal((100, d))
        _, _, s1, _ = _move(pts, _gaussian_density, _no_factor, s0, rng)
        _, _, s2, _ = _move(pts, _gaussian_density, _no_factor, s1, rng)
        assert s2.shape == s1.shape == s0.shape == (d,)
        assert not np.allclose(s1, s0)
        assert s0.tobytes() == initial_log_steps(np.ones(d)).tobytes()  # input left unwritten

    def test_initial_scale_default(self):
        sds = np.array([2.0, 0.5, 1.0, 4.0])
        np.testing.assert_allclose(np.exp(initial_log_steps(sds)), 2.0 / math.sqrt(4) * sds,
                                   rtol=1e-12)

    def test_aux_threading(self):
        # aux values, log pdf and log factor stay consistent with the positions
        def density(X):
            return -0.5 * _sq_norm(X)

        def factor(X):
            return np.where(X[:, 1] > -1.0, 0.0, -np.inf), {"first": X[:, 0].copy()}

        rng = substream(8, "move")
        pts = np.abs(rng.standard_normal((500, 2)))
        out, (log_pdf, log_f, aux), _, _ = _move(pts, density, factor,
                                                 initial_log_steps(np.ones(2)), rng)
        np.testing.assert_array_equal(aux["first"], out[:, 0])
        np.testing.assert_array_equal(log_pdf, density(out))
        np.testing.assert_array_equal(log_f, 0.0)
        assert np.all(out[:, 1] > -1.0)

    def test_rejects_nonfinite_start(self):
        def factor(X):
            return np.where(X[:, 0] > 0, 0.0, -np.inf), {}

        pts = np.array([[1.0], [-1.0]])
        rng, rng_ref = substream(9, "x"), substream(9, "x")
        with pytest.raises(ValueError, match="current log target must be finite"):
            _move(pts, _gaussian_density, factor, initial_log_steps(np.ones(1)), rng)
        # raised before taking a draw: the stream drew its first sweep only
        _assert_one_sweep_ahead(rng, rng_ref, pts.shape)

    def test_rejects_stream_of_another_shape(self):
        pts = np.zeros((4, 2))
        draws = DrawStream(substream(9, "x"), 4, 3)
        try:
            with pytest.raises(ValueError, match=r"shape \(4, 3\) cannot move 4 points in 2"):
                rwmh_move(pts, _gaussian_density, _no_factor, initial_log_steps(np.ones(2)),
                          draws, _start(_gaussian_density, _no_factor, pts))
        finally:
            draws.close()

    def test_bimodal_invariance_chi2(self, monkeypatch):
        # 2-component Gaussian mixture target, exact i.i.d. start, 50 fixed-step
        # sweeps (a zero adaptation step adds +-0.0 to each log step, which
        # keeps every bit); chi-squared GOF on the moved population; the
        # move calls the mixture's factor only where it can accept
        monkeypatch.setattr(smc, "LOG_STEP_DELTA", 0.0)
        monkeypatch.setattr(smc, "SWEEPS", 50)
        rng = substream(10, "move")
        m = 10_000
        comp = rng.random(m) < 0.5
        pts = np.where(comp, -2.0, 2.0)[:, None] + 0.5 * rng.standard_normal((m, 1))

        def density(X):
            return _bimodal_split(X)[0]

        def factor(X):
            return _bimodal_split(X)[1], {}

        out, _, _, _ = _move(pts, density, factor, np.array([math.log(0.8)]), rng)
        x = out[:, 0]

        def mix_cdf(z):
            return 0.5 * spstats.norm.cdf(z, -2, 0.5) + 0.5 * spstats.norm.cdf(z, 2, 0.5)

        edges = np.concatenate([[-np.inf], np.linspace(-4, 4, 25), [np.inf]])
        probs = np.diff([mix_cdf(e) for e in edges])
        observed = np.histogram(x, bins=np.concatenate([[-1e9], edges[1:-1], [1e9]]))[0]
        chi2 = spstats.chisquare(observed, probs * m)
        assert chi2.pvalue > 0.001


def _serial_move(points, log_target, log_sigma, rng, current=None, adapt=True):
    # the move as a plain loop of smc.SWEEPS sweeps, every draw made where it
    # is used and every proposal scored in one call: the reference for the
    # draw-ahead, blocked and screened kernel
    pts = np.array(points, dtype=float)
    m, d = pts.shape
    logp, aux = log_target(pts) if current is None else current
    logp = np.array(logp, dtype=float)
    aux = {k: np.array(v) for k, v in aux.items()}
    log_sigma = log_sigma.copy()
    acceptance, steps = [], []
    for s in range(1, smc.SWEEPS + 1):
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


def _joint(density, factor):
    # the reference's one-piece target: log density + log factor, with aux
    def target(X):
        lf, aux = factor(X)
        return density(X) + lf, aux
    return target


def _shell_density(X):
    return -0.5 * _sq_norm(X)


def _shell_factor(X):
    # a hard edge (rejections at -inf) and an aux array
    r2 = _sq_norm(X)
    return np.where(r2 > 1.0, 0.0, -np.inf), {"r2": r2}


_shell_target = _joint(_shell_density, _shell_factor)


def _shell_start(m, d, seed):
    z = substream(seed, "start").standard_normal((m, d))
    return 2.0 * z / np.linalg.norm(z, axis=1, keepdims=True)


def _assert_same(ref, out):
    """The move's output is the reference's, bit for bit; where the move
    left proposals unscored, its acceptance interval holds the reference's
    mean and clears the adaptation target."""
    pts, (log_pdf, log_f, aux), log_sigma, diag = out
    np.testing.assert_array_equal(pts, ref[0])
    np.testing.assert_array_equal(log_pdf + log_f, ref[1])
    assert aux.keys() == ref[2].keys()
    for key in aux:
        np.testing.assert_array_equal(aux[key], ref[2][key])
    np.testing.assert_array_equal(log_sigma, ref[3])
    assert len(diag.acceptance) == len(diag.acceptance_hi) == len(ref[4])
    for lo, hi, abar in zip(diag.acceptance, diag.acceptance_hi, ref[4]):
        if lo == hi:
            assert lo == abar
        else:
            assert lo - 1e-12 <= abar <= hi + 1e-12
            assert not lo - smc._SCREEN_MARGIN <= TARGET_ACCEPTANCE <= hi + smc._SCREEN_MARGIN
    assert len(diag.step_log_sigma) == len(ref[5])
    for a, b in zip(diag.step_log_sigma, ref[5]):
        np.testing.assert_array_equal(a, b)


def _assert_one_sweep_ahead(rng, rng_ref, shape):
    """`rng`, behind a closed draw stream, is `rng_ref` (the reference's
    generator) after one more sweep's draw: the stream draws one sweep
    beyond those its moves took, and nothing else."""
    m, d = shape
    rng_ref.standard_normal((m, d))
    rng_ref.random(m)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def _counted(fn, rows):
    # fn, appending the row count of each call to `rows`
    def wrapped(X):
        rows.append(X.shape[0])
        return fn(X)
    return wrapped


def _two_sweeps(seed):
    # a stream's first two sweeps of draws, as bytes
    draws = DrawStream(substream(seed, "fork"), 50, 3)
    try:
        return b"".join(a.tobytes() for _ in range(2) for a in draws.take())
    finally:
        draws.close()


def _two_sweeps_in_child(want):
    sys.exit(0 if _two_sweeps(18) == want else 1)


def _with_dims(name, values):
    # `values`, plain or pytest.param, crossed with d = 1, 3, 7; d = 3 keeps
    # the value's own id
    params = [v if hasattr(v, "id") else pytest.param(v, id=str(v)) for v in values]
    return pytest.mark.parametrize(f"{name},d", [
        pytest.param(*p.values, d, id=p.id if d == 3 else f"{p.id}-d{d}")
        for p in params for d in (1, 3, 7)])


class TestDrawAhead:
    """The draw stream keeps the next sweep's random numbers in flight on its
    own thread while the current sweep evaluates its target, across moves;
    that changes no bit of any output, and leaves the generator one sweep
    past the reference's once the stream is closed, with `DRAW_AHEAD` on
    or off."""

    @pytest.mark.parametrize("ahead", AHEAD)
    @pytest.mark.parametrize("adapt", [True, False])
    @_with_dims("m", [1, 300])
    def test_matches_serial_loop(self, monkeypatch, ahead, adapt, m, d):
        # adapt=False: the move with a zero adaptation step, which adds +-0.0
        # to each log step and so keeps every bit of the loop without one
        monkeypatch.setattr(smc, "DRAW_AHEAD", ahead)
        if not adapt:
            monkeypatch.setattr(smc, "LOG_STEP_DELTA", 0.0)
        monkeypatch.setattr(smc, "SWEEPS", 6)
        pts = _shell_start(m, d, 11)
        log_sigma = initial_log_steps(np.ones(d))
        rng_ref, rng = substream(12, "move"), substream(12, "move")
        ref = _serial_move(pts, _shell_target, log_sigma, rng_ref, adapt=adapt)
        out = _move(pts, _shell_density, _shell_factor, log_sigma, rng)
        _assert_same(ref, out)
        _assert_one_sweep_ahead(rng, rng_ref, pts.shape)
        assert len(out[3].acceptance) == 6
        if not adapt:
            np.testing.assert_array_equal(out[2], log_sigma)

    @pytest.mark.parametrize("ahead", AHEAD)
    @pytest.mark.parametrize("m", [1, 300])
    def test_reused_buffers_reach_no_output(self, monkeypatch, ahead, m):
        # the move forms each sweep's proposals in a draw buffer that the
        # stream refills one sweep later: a factor whose aux array is a view of
        # its input, or functions that keep their input, change no bit, and
        # no output shares memory with what they were given
        monkeypatch.setattr(smc, "DRAW_AHEAD", ahead)
        monkeypatch.setattr(smc, "SWEEPS", 6)
        d = 3
        pts = _shell_start(m, d, 16)
        log_sigma = initial_log_steps(np.ones(d))
        seen = []

        def keeping(fn):
            def wrapped(X):
                seen.append(X)
                return fn(X)
            return wrapped

        def view_factor(X):
            lf, _ = _shell_factor(X)
            return lf, {"x0": X[:, 0]}

        for density, factor in ((_shell_density, view_factor),
                                (keeping(_shell_density), keeping(_shell_factor))):
            rng_ref, rng = substream(17, "move"), substream(17, "move")
            ref = _serial_move(pts, _joint(density, factor), log_sigma, rng_ref)
            current = _start(density, factor, pts)
            seen.clear()
            out = _move(pts, density, factor, log_sigma, rng, current)
            _assert_same(ref, out)
            _assert_one_sweep_ahead(rng, rng_ref, pts.shape)
        assert seen
        outputs = [out[0], *out[1][:2], *out[1][2].values()]
        assert not any(np.shares_memory(a, x) for a in outputs for x in seen)

    @pytest.mark.parametrize("ahead", AHEAD)
    def test_multi_call_sequence_carries_state(self, monkeypatch, ahead):
        # three stages on one draw stream, the later ones from cached values,
        # as the subset simulation driver calls the move; with the draw thread
        # on, a short switch interval stresses the hand-over of the generator
        monkeypatch.setattr(smc, "DRAW_AHEAD", ahead)
        monkeypatch.setattr(smc, "SWEEPS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self._three_stages()
        finally:
            sys.setswitchinterval(interval)

    def _three_stages(self):
        d = 2
        pts = _shell_start(200, d, 13)
        rng_ref, rng = substream(14, "move"), substream(14, "move")
        pts_ref, current_ref = pts, None
        log_sigma_ref = log_sigma = initial_log_steps(np.ones(d))
        current = _start(_shell_density, _shell_factor, pts)
        draws = DrawStream(rng, *pts.shape)
        try:
            for _ in range(3):
                ref = _serial_move(pts_ref, _shell_target, log_sigma_ref, rng_ref, current_ref)
                out = rwmh_move(pts, _shell_density, _shell_factor, log_sigma, draws, current)
                _assert_same(ref, out)
                pts_ref, current_ref, log_sigma_ref = ref[0], (ref[1], ref[2]), ref[3]
                pts, current, log_sigma, _ = out
        finally:
            draws.close()
        _assert_one_sweep_ahead(rng, rng_ref, pts.shape)

    def test_raising_target_leaves_generator_quiescent(self, monkeypatch):
        monkeypatch.setattr(smc, "DRAW_AHEAD", True)

        class SweepTwo(Exception):
            pass

        raised = SweepTwo("sweep 2")
        m, d = 100_000, 6
        blocks = math.ceil(m / smc._BLOCK_ROWS)
        assert blocks > 1
        calls = []

        def density(X):
            # one call per row block: call blocks + 1 is sweep 2's first block
            calls.append(X.shape)
            if len(calls) == blocks + 1:
                raise raised
            return _gaussian_density(X)

        pts = np.zeros((m, d))
        rng = substream(15, "move")
        current = (_gaussian_density(pts), np.zeros(m), {})
        with pytest.raises(SweepTwo) as info:
            _move(pts, density, _no_factor, initial_log_steps(np.ones(d)), rng, current)
        assert info.value is raised
        before = rng.bit_generator.state
        time.sleep(0.2)
        assert rng.bit_generator.state == before
        # sweep 3's draw was in flight when sweep 2 raised: close() waited
        # for it, and nothing beyond it was drawn
        rng_ref = substream(15, "move")
        for _ in range(3):
            rng_ref.standard_normal((m, d))
            rng_ref.random(m)
        assert before == rng_ref.bit_generator.state


    def test_close_stops_the_thread_when_the_draw_raised(self, monkeypatch):
        monkeypatch.setattr(smc, "DRAW_AHEAD", True)

        class Broken:
            def standard_normal(self, out):
                raise RuntimeError("draw failed")

        draws = DrawStream(Broken(), 4, 2)  # its first draw raises on its thread
        with pytest.raises(RuntimeError, match="draw failed"):
            draws.close()
        assert not draw_threads()

    def test_forked_child_starts_its_own_draw_thread(self, monkeypatch):
        # a child forked while a stream's draw thread runs inherits none of
        # its threads: the child's own stream starts and stops its own
        monkeypatch.setattr(smc, "DRAW_AHEAD", True)
        want = _two_sweeps(18)
        held = DrawStream(substream(19, "fork"), 50, 3)
        try:
            assert draw_threads()  # alive at the fork
            child = multiprocessing.get_context("fork").Process(
                target=_two_sweeps_in_child, args=(want,))
            child.start()
            child.join(60)
            hung = child.is_alive()
            if hung:
                child.kill()
        finally:
            held.close()
        assert not hung and child.exitcode == 0


class TestScreen:
    """The move calls the factor only on proposals that the full target
    could accept, row block by row block, and scores the others only while
    they decide the step adaptation; every output bit is the one of the
    serial loop that scores every proposal."""

    @_with_dims("ahead", AHEAD)
    def test_blocked_sweep_matches_serial_loop(self, monkeypatch, ahead, d):
        # 300 rows in blocks of 64: four full blocks and an uneven tail
        monkeypatch.setattr(smc, "DRAW_AHEAD", ahead)
        monkeypatch.setattr(smc, "_BLOCK_ROWS", 64)
        monkeypatch.setattr(smc, "SWEEPS", 8)
        m = 300
        pts = _shell_start(m, d, 21)
        log_sigma = initial_log_steps(np.ones(d))
        densities = []
        density = _counted(_shell_density, densities)
        rng_ref, rng = substream(22, "move"), substream(22, "move")
        ref = _serial_move(pts, _shell_target, log_sigma, rng_ref)
        out = _move(pts, density, _shell_factor, log_sigma, rng,
                    _start(_shell_density, _shell_factor, pts))
        _assert_same(ref, out)
        _assert_one_sweep_ahead(rng, rng_ref, pts.shape)
        assert densities == [64, 64, 64, 64, 44] * smc.SWEEPS

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_screened_equals_unscreened_on_indicator_target(self, monkeypatch, seed):
        # the level x1 + x2 > 1 of N(0, 1)^2, 2,000 particles in blocks of 256
        monkeypatch.setattr(smc, "_BLOCK_ROWS", 256)
        m, d = 2000, 2
        start = substream(seed, "start").standard_normal((6 * m, d))
        pts = start[start[:, 0] + start[:, 1] > 1.0][:m]
        assert pts.shape == (m, d)

        def factor(X):
            f = X[:, 0] + X[:, 1]
            return np.where(f > 1.0, 0.0, -np.inf), {"f": f}

        law_density = InputDistribution.iid_normal(d).log_density
        log_sigma = initial_log_steps(np.ones(d))
        rows = []
        rng_ref, rng = substream(seed, "move"), substream(seed, "move")
        # the reference scores every proposal: its acceptance is the exact
        # mean, which the move's interval holds
        ref = _serial_move(pts, _joint(law_density, factor), log_sigma, rng_ref)
        out = _move(pts, law_density, _counted(factor, rows), log_sigma, rng,
                    _start(law_density, factor, pts))
        _assert_same(ref, out)
        _assert_one_sweep_ahead(rng, rng_ref, pts.shape)
        p1, (lp1, lf1, _) = out[:2]
        np.testing.assert_array_equal(lp1, law_density(p1))
        np.testing.assert_array_equal(lf1, 0.0)
        # the factor sees fewer rows, in one call per block plus the
        # fallbacks of the sweeps whose interval held the target
        assert sum(rows) < smc.SWEEPS * m
        assert 0 < min(rows) and max(rows) <= 256
        assert len(rows) > math.ceil(m / 256) * smc.SWEEPS

    def test_fallback_scores_highest_bounds_first(self, monkeypatch):
        # one sweep of 4 proposals whose bounds straddle the target: the
        # screen passes none, so the fallback scores rows in descending
        # bound order, 2 at a time, until the interval clears 0.30
        monkeypatch.setattr(smc, "_BLOCK_ROWS", 2)
        accept_prob = np.array([0.1, 0.9, 0.5, 0.7])  # bounds of unscored rows
        scored = np.zeros(4, dtype=bool)
        calls = []

        def score(rows):
            calls.append(sorted(rows.tolist()))
            accept_prob[rows] = 0.0  # every scored proposal is outside the level

        lo, hi = smc._acceptance_bounds(accept_prob, scored, score)
        assert calls == [[1, 3]]  # 0.9 and 0.7; after them hi = 0.6 / 4 < 0.30
        assert lo == 0.0 and hi == pytest.approx(0.15, abs=1e-15)

    def test_fallback_scoring_all_gives_exact_mean(self, monkeypatch):
        monkeypatch.setattr(smc, "_BLOCK_ROWS", 2)
        accept_prob = np.array([0.2, 0.4, 0.3, 0.6, 0.5])
        exact = np.array([0.2, 0.25, 0.3, 0.35, 0.4])
        scored = np.array([True, False, True, False, False])

        def score(rows):
            accept_prob[rows] = exact[rows]

        lo, hi = smc._acceptance_bounds(accept_prob, scored, score)
        assert lo == hi == float(exact.mean())
