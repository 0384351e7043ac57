"""Monte Carlo and subset simulation baselines."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from failprob import estimators
from failprob.core import ConfigError, InputDistribution, Problem
from failprob.estimators import (
    SubsetSimConfig,
    monte_carlo_estimate,
    run_subset_simulation,
    ss_relative_variance_approx,
)


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


class TestVarianceApprox:
    def test_paper_example(self):
        # alpha 1e-6, p0 0.1, m 5400: T = 6 stages, 10% coefficient of variation
        v = ss_relative_variance_approx(1e-6, 0.1, 5400)
        assert v == pytest.approx(0.01, rel=1e-9)

    def test_single_stage_is_bernoulli(self):
        v = ss_relative_variance_approx(0.1, 0.1, 1000)
        assert v == pytest.approx(0.9 / (0.1 * 1000), rel=1e-12)

    def test_m_scaling(self):
        a = ss_relative_variance_approx(1e-4, 0.1, 1000)
        b = ss_relative_variance_approx(1e-4, 0.1, 2000)
        assert a == pytest.approx(2 * b, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ss_relative_variance_approx(0.0, 0.1, 100)
        with pytest.raises(ValueError):
            ss_relative_variance_approx(0.5, 1.0, 100)


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
        assert res.alpha_hat == (0.1 ** (T - 1)) * m_u_over_m
        for s in res.stages[:-1]:
            assert s.p_hat == 0.1
        thresholds = [s.u_t for s in res.stages]
        assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
        assert thresholds[-1] == prob.threshold

    def test_reported_count_convention(self):
        prob = _problem(float(ndtri(1 - 1e-4)))
        cfg = SubsetSimConfig(m=2000, m0=200)
        res = run_subset_simulation(prob, cfg, 5)
        T = len(res.stages)
        assert res.n_reported == 2000 + (T - 1) * 0.9 * 2000
        # the ledger records the true call count: stage 0 plus S proposals
        # per particle per move
        assert res.n_total == 2000 + (T - 1) * 10 * 2000

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
        assert res.alpha_hat == 0.1 and not res.degenerate
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


def test_kernel_threads_change_no_bit(kernel_threads):
    # the move draws its next sweep's random numbers on the kernel pool; one
    # thread and two (the default on a 2-CPU host) give the same run
    from failprob.bench import nonlinear_oscillator

    case = nonlinear_oscillator()

    def signature():
        res = run_subset_simulation(case.problem, SubsetSimConfig(m=2000, m0=200), 21)
        return (res.alpha_hat.hex(), res.n_total,
                [(s.u_t.hex(), s.acceptance) for s in res.stages])

    kernel_threads(1)
    one = signature()
    kernel_threads(2)
    assert len(one[2]) > 2
    assert signature() == one


def test_ss_oscillator_meets_nonfinite_values():
    # proposals with x2 + x3 <= 0 make the oscillator's limit state NaN; the
    # indicator target rejects them (NaN > u is False) and the run finishes
    from failprob.bench import nonlinear_oscillator

    problem = nonlinear_oscillator().problem
    nonfinite = []

    def counting(X):
        values = problem.limit_state(X)
        nonfinite.append(int(np.count_nonzero(~np.isfinite(values))))
        return values

    counted = Problem(counting, problem.input, problem.threshold)
    res = run_subset_simulation(counted, SubsetSimConfig(m=10_000, m0=1000), 0)
    assert sum(nonfinite) > 0
    assert res.error is None and 0.0 < res.alpha_hat < 1e-6


def test_one_kernel_thread_builds_no_pool(kernel_threads):
    # a `--jobs` worker runs one kernel thread: it draws inline, on no pool
    from failprob import core

    kernel_threads(1)
    assert core._kernel_pool is None
    run_subset_simulation(_problem(2.0), SubsetSimConfig(m=500, m0=50), 3)
    assert core._kernel_pool is None
