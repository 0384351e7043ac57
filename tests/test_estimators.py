"""Monte Carlo and subset simulation baselines."""

import math
import threading
import time

import numpy as np
import pytest
from conftest import AHEAD, draw_threads
from scipy.special import ndtr, ndtri

from failprob import estimators, smc
from failprob.bss import BssConfig, run_bss
from failprob.core import ConfigError, InputDistribution, Problem, substream
from failprob.estimators import (
    SubsetSimConfig,
    monte_carlo_estimate,
    run_subset_simulation,
)
from failprob.smc import product_estimate, rwmh_move


def _linear(X):
    return X[:, 0]


def _problem(u):
    return Problem(_linear, InputDistribution.iid_normal(1), u)


class TestMonteCarlo:
    def test_symmetric_threshold(self):
        res = monte_carlo_estimate(_problem(0.0), 1_000_000, 0)
        assert res.alpha_hat == pytest.approx(0.5, abs=0.002)
        assert res.n_total == 1_000_000

    def test_degenerate_no_failures(self):
        res = monte_carlo_estimate(_problem(50.0), 10_000, 1)
        assert res.alpha_hat == 0.0
        assert res.std_err == 0.0
        assert res.degenerate

    def test_exact_normal_tail(self):
        u = float(ndtri(0.99))
        res = monte_carlo_estimate(_problem(u), 1_000_000, 2)
        assert res.alpha_hat == pytest.approx(0.01, abs=4e-4)
        assert res.std_err == pytest.approx(math.sqrt(0.01 * 0.99 / 1e6), rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_estimate(_problem(0.0), 0, 0)


class TestSubsetSimulation:
    def test_single_stage_collapse_is_pure_mc(self):
        # threshold below the first order statistic: T = 1, alpha = m_u / m
        prob = _problem(float(ndtri(0.8)))  # alpha = 0.2 >> p0
        cfg = SubsetSimConfig(m=1000, m0=100)
        res = run_subset_simulation(prob, cfg, 3)
        assert len(res.stages) == 1
        assert res.n_total == 1000
        assert res.n_reported == 1000
        assert res.alpha_hat == res.stages[0].p_hat
        mc = monte_carlo_estimate(prob, 1000, 99)
        assert abs(res.alpha_hat - 0.2) < 0.05 and abs(mc.alpha_hat - 0.2) < 0.05

    def test_product_form_and_threshold_monotonicity(self):
        prob = _problem(float(ndtri(1 - 1e-4)))
        cfg = SubsetSimConfig(m=2000, m0=200)
        res = run_subset_simulation(prob, cfg, 11)
        T = len(res.stages)
        m_u_over_m = res.stages[-1].p_hat
        assert res.alpha_hat == product_estimate(s.p_hat for s in res.stages)
        assert res.alpha_hat == pytest.approx((0.1 ** (T - 1)) * m_u_over_m, rel=1e-14)
        for s in res.stages[:-1]:
            assert s.p_hat == 0.1
        thresholds = [s.u_t for s in res.stages]
        assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
        assert thresholds[-1] == prob.threshold

    def test_reported_count_convention(self):
        prob = _problem(float(ndtri(1 - 1e-4)))
        received = []

        def counting(X):
            received.append(X.shape[0])
            return X[:, 0]

        counted = Problem(counting, prob.input, prob.threshold)
        cfg = SubsetSimConfig(m=2000, m0=200)
        res = run_subset_simulation(counted, cfg, 5)
        T = len(res.stages)
        assert res.n_reported == 2000 + (T - 1) * 0.9 * 2000
        # the ledger records the true call count: the rows the limit state
        # received, which the move keeps below S per particle per move
        assert res.n_total == sum(received)
        assert 2000 < res.n_total < 2000 + (T - 1) * 10 * 2000

    def test_stage_records_hold_the_move_evaluations(self):
        prob = _problem(float(ndtri(1 - 1e-4)))
        res = run_subset_simulation(prob, SubsetSimConfig(m=2000, m0=200), 5)
        assert res.n_total == 2000 + sum(s.n_evals for s in res.stages)
        *moved, last = res.stages
        assert all(s.n_evals > 0 for s in moved) and last.n_evals == 0 and not last.acceptance
        for s in moved:
            assert len(s.acceptance) == 10
            assert all(0.0 <= lo <= hi <= 1.0 for lo, hi in s.acceptance)
            # an interval left open lies clear of the adaptation target
            assert all(lo == hi or not lo <= 0.3 <= hi for lo, hi in s.acceptance)

    def test_stage_records_follow_the_kappa_recursion(self, monkeypatch):
        # oracle: the cloud each stage sees (the initial sample, then each
        # move's output) gives p_hat = survivors / m; the indicator's kappa is
        # (1 - p) / p, and delta_hat the recursion rolled by hand
        m = 2000
        clouds = []

        def linear(X):
            values = X[:, 0]
            if not clouds:
                clouds.append(values.copy())
            return values

        def recording_move(*args, **kwargs):
            out = rwmh_move(*args, **kwargs)
            clouds.append(out[1][2]["f"].copy())
            return out

        monkeypatch.setattr(estimators, "rwmh_move", recording_move)
        problem = Problem(linear, InputDistribution.iid_normal(1), float(ndtri(1 - 1e-4)))
        res = run_subset_simulation(problem, SubsetSimConfig(m=m, m0=200), 7)
        assert len(res.stages) == len(clouds) >= 3
        delta2 = 0.0
        for stage, vals in zip(res.stages, clouds):
            p = int(np.count_nonzero(vals > stage.u_t)) / m
            kappa = (1.0 - p) / p
            delta2 = kappa / m + (1.0 + kappa / m) * delta2
            assert stage.p_hat == p
            assert stage.kappa_hat == pytest.approx(kappa, rel=1e-12)
            assert stage.delta_hat == pytest.approx(math.sqrt(delta2), rel=1e-12)
        assert res.delta_hat == res.stages[-1].delta_hat
        assert res.alpha_hat == pytest.approx(math.prod(s.p_hat for s in res.stages), rel=1e-14)

    def test_unbiasedness_1d_tail(self):
        # quick version of the statistical acceptance check
        alpha = 1e-4
        prob = _problem(float(ndtri(1 - alpha)))
        cfg = SubsetSimConfig(m=2000, m0=200)
        ests = np.array([run_subset_simulation(prob, cfg, s).alpha_hat for s in range(50)])
        se = ests.std(ddof=1) / math.sqrt(len(ests))
        assert abs(ests.mean() - alpha) <= 4 * se

    def test_max_stages_guard(self, monkeypatch):
        # the run ends as bss's does: a result with the error and the
        # product of its recorded stage estimates, p0 each
        monkeypatch.setattr(estimators, "MAX_STAGES", 1)
        prob = _problem(2.0)
        cfg = SubsetSimConfig(m=200, m0=20)
        res = run_subset_simulation(prob, cfg, 0)
        assert res.error == "max_stages=1 exceeded"
        assert [(s.t, s.p_hat) for s in res.stages] == [(1, 0.1)]
        assert res.alpha_hat == product_estimate([0.1]) and not res.degenerate
        # stage 0's sample only: no stage is left to use a move after stage 1
        assert res.n_reported == 200 and res.n_intermediate == 0
        assert res.n_total == 200

    def test_four_branch_relative_spread(self):
        # m = 1e5, 20 runs: empirical relative std within factor 2 of the
        # equal-conditional-probability approximation with T = 9
        from failprob.bench import four_branch

        case = four_branch()
        cfg = SubsetSimConfig(m=100_000, m0=10_000)
        ests = np.array([
            run_subset_simulation(case.problem, cfg, seed).alpha_hat for seed in range(20)
        ])
        T = math.ceil(math.log(case.alpha_ref) / math.log(0.1))
        assert T == 9
        target = math.sqrt(T * 0.9 / (0.1 * 100_000))
        rel_std = ests.std(ddof=1) / case.alpha_ref
        assert target / 2 <= rel_std <= target * 2
        assert ests.mean() == pytest.approx(case.alpha_ref, rel=0.25)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SubsetSimConfig(m=100, m0=100)
        with pytest.raises(ConfigError, match="need 1 <= m0 < m"):
            SubsetSimConfig(m=100, m0=0)


def test_draw_ahead_changes_no_bit(monkeypatch):
    # the draw stream keeps the move's next sweep of random numbers in flight
    # on its own thread; with `DRAW_AHEAD` off (drawing inline) and on (the
    # default on a 2-CPU host) the run is the same, here over three row
    # blocks of the move's sweep
    from failprob.bench import nonlinear_oscillator

    case = nonlinear_oscillator()
    m = 3 * smc._BLOCK_ROWS

    def signature():
        res = run_subset_simulation(case.problem, SubsetSimConfig(m=m, m0=m // 10), 21)
        return (res.alpha_hat.hex(), res.n_total,
                [(s.u_t.hex(), s.acceptance) for s in res.stages])

    monkeypatch.setattr(smc, "DRAW_AHEAD", False)
    inline = signature()
    monkeypatch.setattr(smc, "DRAW_AHEAD", True)
    assert len(inline[2]) > 2
    assert signature() == inline


@pytest.mark.parametrize("ahead", AHEAD)
def test_raising_limit_state_leaves_generator_quiescent(monkeypatch, ahead):
    # the limit state raises in the first move's first block, while the
    # stream's second sweep is in flight: the run closes the stream before
    # the exception is out, and the move's generator has drawn two sweeps
    monkeypatch.setattr(smc, "DRAW_AHEAD", ahead)
    m, d = 100_000, 6
    generators = {}

    def recording(seed, *path):
        generators[path] = substream(seed, *path)
        return generators[path]

    calls = []

    def raising(X):
        calls.append(len(X))  # the initial sample, then the move's first block
        if len(calls) == 2:
            raise RuntimeError("limit state failed")
        return X[:, 0]

    monkeypatch.setattr(estimators, "substream", recording)
    problem = Problem(raising, InputDistribution.iid_normal(d), 6.0)
    with pytest.raises(RuntimeError, match="limit state failed"):
        run_subset_simulation(problem, SubsetSimConfig(m=m, m0=m // 10), 4)
    assert calls[0] == m and calls[1] <= smc._BLOCK_ROWS
    rng = generators[("move",)]
    before = rng.bit_generator.state
    time.sleep(0.2)
    assert rng.bit_generator.state == before
    rng_ref = substream(4, "move")
    for _ in range(2):
        rng_ref.standard_normal((m, d))
        rng_ref.random(m)
    assert before == rng_ref.bit_generator.state
    assert not draw_threads()


def _run(method, problem, seed):
    if method == "ss":
        return run_subset_simulation(problem, SubsetSimConfig(m=500, m0=50), seed)
    return run_bss(problem, BssConfig(m=300), seed)


@pytest.mark.parametrize("method", ["ss", "bss"])
@pytest.mark.parametrize("raises", [False, True])
def test_no_draw_thread_outlives_its_run(monkeypatch, method, raises):
    # with `DRAW_AHEAD` on, the run's draw stream owns one draw thread while
    # it moves, and stops it whether the run returns or the move's target
    # raises (the input density, on the first move's first block)
    monkeypatch.setattr(smc, "DRAW_AHEAD", True)
    log_density = InputDistribution.log_density
    alive = []

    def watched(self, x):
        alive.append(len(draw_threads()))
        if raises and len(alive) == 2:  # the initial cloud, then the move
            raise RuntimeError("target failed")
        return log_density(self, x)

    monkeypatch.setattr(InputDistribution, "log_density", watched)
    if raises:
        with pytest.raises(RuntimeError, match="target failed"):
            _run(method, _problem(3.0), 4)
    else:
        assert _run(method, _problem(3.0), 4).error is None
    assert len(alive) >= 2 and alive[1] == 1
    assert not draw_threads()


def test_ss_rejects_nonfinite_values():
    # a limit state that is NaN wherever x1 < -1.5, which holds real density
    # mass (less than p0, so the first order statistic is finite): the
    # indicator target rejects NaN values (NaN > u is False), the moves still
    # meet them, and the run finishes
    nonfinite = []

    def nan_left(X):
        values = np.where(X[:, 0] < -1.5, np.nan, X[:, 1])
        nonfinite.append(int(np.count_nonzero(np.isnan(values))))
        return values

    problem = Problem(nan_left, InputDistribution.iid_normal(2), float(ndtri(1 - 1e-3)))
    res = run_subset_simulation(problem, SubsetSimConfig(m=2000, m0=200), 0)
    assert nonfinite[0] > 0 and sum(nonfinite[1:]) > 0
    assert res.error is None and 0.0 < res.alpha_hat < 1.0


def _nan_left_of(cut):
    """Limit state x2 on N(0,1)^2, NaN wherever x1 < cut, and its exact
    P(f > u) at u = Phi^-1(1 - 1e-3): a NaN value is no failure."""
    problem = Problem(lambda X: np.where(X[:, 0] < cut, np.nan, X[:, 1]),
                      InputDistribution.iid_normal(2), float(ndtri(1 - 1e-3)))
    return problem, float(ndtr(-cut)) * 1e-3


def test_ss_ranks_nan_below_every_level():
    # NaN mass below p0 (x1 < -1.5, 6.7%): with NaN ranked as the largest
    # value, fewer than m0 finite particles survived the first level, which
    # was still credited p0, and seeds 0-2 gave 2.3e-3 to 3.8e-3 against 9.33e-4
    problem, alpha = _nan_left_of(-1.5)
    for seed in range(5):
        res = run_subset_simulation(problem, SubsetSimConfig(m=2000, m0=200), seed)
        assert res.error is None
        assert res.stages[0].p_hat == 0.1
        assert 0.7 * alpha < res.alpha_hat < 1.4 * alpha


def test_ss_finishes_with_nan_mass_above_p0():
    # NaN wherever x1 < -1 (16% > p0): the first order statistic used to be
    # NaN, so no particle survived and the resampling weights divided by zero
    problem, alpha = _nan_left_of(-1.0)
    for seed in range(3):
        res = run_subset_simulation(problem, SubsetSimConfig(m=2000, m0=200), seed)
        assert res.error is None and not res.degenerate
        assert 0.7 * alpha < res.alpha_hat < 1.4 * alpha


@pytest.mark.parametrize("value, u_t", [(0.0, 0.0), (np.nan, -np.inf)])
def test_ss_level_keeping_no_particle_ends_the_run(value, u_t):
    # a constant limit state below u: the first level is that constant (or,
    # for NaN, -inf) and no particle lies above it
    problem = Problem(lambda X: np.full(len(X), value), InputDistribution.iid_normal(2), 1.0)
    res = run_subset_simulation(problem, SubsetSimConfig(m=200, m0=20), 0)
    assert res.error == f"no particle lies above the level u_t = {u_t!r}"
    assert [(s.u_t, s.p_hat) for s in res.stages] == [(u_t, 0.0)]
    assert res.alpha_hat == 0.0 and res.degenerate
    assert res.n_total == 200  # no move follows


def test_ss_oscillator_screen_meets_no_nan():
    # the oscillator's limit state is NaN where x2 + x3 <= 0 or x1 <= 0,
    # some ten standard deviations out: the screen rejects such proposals on
    # their density alone, so the run evaluates none of them
    from failprob.bench import nonlinear_oscillator

    problem = nonlinear_oscillator().problem
    nonfinite = []

    def counting(X):
        values = problem.limit_state(X)
        nonfinite.append(int(np.count_nonzero(~np.isfinite(values))))
        return values

    counted = Problem(counting, problem.input, problem.threshold)
    res = run_subset_simulation(counted, SubsetSimConfig(m=10_000, m0=1000), 0)
    assert sum(nonfinite) == 0
    assert res.error is None and 0.0 < res.alpha_hat < 1e-6


def test_drawing_inline_starts_no_thread(monkeypatch):
    # a `--jobs` worker turns `DRAW_AHEAD` off: its runs draw inline and
    # start no thread; with it on, each run's draw stream starts one
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    for ahead, want in ((False, 0), (True, 2)):
        monkeypatch.setattr(smc, "DRAW_AHEAD", ahead)
        started.clear()
        for method in ("ss", "bss"):
            _run(method, _problem(2.0), 3)
        assert sum(name.startswith("failprob-draw") for name in started) == want
