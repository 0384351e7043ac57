"""Bayesian subset simulation: threshold solver, stopping rule, variance
recursion, and the full driver."""

import math

import numpy as np
import pytest
from conftest import requires_scipy_117
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp, ndtri

from failprob import bss, gp, smc, sur
from failprob.bench import cantilever_beam, four_branch
from failprob.bss import (
    _MAX_EXPANSIONS,
    BssConfig,
    ThresholdSolverError,
    misclass_sum,
    run_bss,
    solve_threshold,
)
from failprob.core import InputDistribution, Problem, log_sum_exp, substream
from failprob.estimators import SubsetSimConfig, run_subset_simulation
from failprob.smc import cov_recursion, kappa_hat
from failprob.sur import log_coverage_g


def _linear(X):
    return X[:, 0]


def _problem(u):
    return Problem(_linear, InputDistribution.iid_normal(1), u)


class _FixedPosterior:
    """Stub model: the hyperparameters, nugget and design values that
    `solve_threshold` and `model_var_floor` read; the posterior mean and sd
    at the particles are given to them directly."""

    class _H:
        sigma2 = 1.0
        ranges = np.array([1.0])

    hyper = _H()
    jitter = 0.0
    design_values = np.array([1.0])


class TestSolveThreshold:
    def test_indicator_limit_matches_order_statistic(self):
        rng = substream(0, "thr")
        vals = rng.standard_normal(500)
        model = _FixedPosterior()
        u = solve_threshold(model, vals, np.zeros(500), np.zeros(500), 0.1)
        order = np.sort(vals)
        assert u == pytest.approx(order[500 - 50 - 1], abs=1e-9)
        # exactly m0 survivors
        assert np.count_nonzero(vals > u) == 50

    def test_identical_gaussian_posteriors_closed_form(self):
        m = 64
        mu, sd = 0.7, 1.3
        model = _FixedPosterior()
        u = solve_threshold(model, np.full(m, mu), np.full(m, sd), np.zeros(m), 0.1)
        assert u == pytest.approx(mu + sd * ndtri(1 - 0.1), abs=1e-9)

    def test_p0_bounds_enforced(self):
        model = _FixedPosterior()
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                solve_threshold(model, np.zeros(4), np.ones(4), np.zeros(4), bad)

    def test_unsolvable_equation_raises(self):
        # ratios bounded by e^-10 for every u: the equation has no root, for
        # the solver and for its bisection reference alike
        model = _FixedPosterior()
        for solve in (solve_threshold, _bisection_threshold):
            with pytest.raises(ThresholdSolverError):
                solve(model, np.zeros(4), np.ones(4), np.full(4, 10.0), 0.1)


def _bisection_threshold(model, mean, sd, log_g_prev, p0):
    """solve_threshold as it was before the root search, verbatim: plain
    bisection, the reference whose answer the replay must give."""
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must be in (0, 1)")
    log_p0_m = math.log(p0) + math.log(len(mean))

    def lhs_gt(u: float) -> bool:
        # all-(-inf) terms give -inf, and NaN compares False
        return float(log_sum_exp(log_coverage_g(mean, sd, u) - log_g_prev)) > log_p0_m

    scale = max(1.0, float(np.max(np.abs(model.design_values))))
    lo = float(np.min(mean - 6.0 * sd))
    hi = float(np.max(mean + 6.0 * sd))
    if not hi > lo:
        lo, hi = lo - max(1.0, abs(lo)), hi + max(1.0, abs(hi))
    k = 0
    while not lhs_gt(lo):
        lo, hi = lo - (hi - lo), lo
        k += 1
        if k > _MAX_EXPANSIONS:
            raise ThresholdSolverError("no sign change while expanding bracket downward")
    k = 0
    while lhs_gt(hi):
        lo, hi = hi, hi + (hi - lo)
        k += 1
        if k > _MAX_EXPANSIONS:
            raise ThresholdSolverError("no sign change while expanding bracket upward")
    width_tol = 1e-12 * scale
    while hi - lo > width_tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if lhs_gt(mid):
            lo = mid
        else:
            hi = mid
    return hi


_SD_KINDS = ("continuous", "plateau", "mixed", "ties", "unsolvable")


@st.composite
def _threshold_inputs(draw):
    """Posterior mean, sd and floored log g_prev at m particles, p0 and a
    design-value scale; drawn from a seed, so they shrink by their knobs."""
    m = draw(st.sampled_from([1, 2, 3, 10, 64, 500]))
    kind = draw(st.sampled_from(_SD_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loc = rng.normal(0.0, 10.0 ** draw(st.floats(-2.0, 3.0)))
    mean = loc + 10.0 ** draw(st.floats(-3.0, 2.0)) * rng.standard_normal(m)
    sd = 10.0 ** draw(st.floats(-4.0, 1.0)) * np.abs(rng.standard_normal(m))
    log_g_prev = np.where(rng.random(m) < 0.5, -rng.exponential(3.0, m), 0.0)
    if kind == "plateau":  # the indicator limit: the equation holds on a plateau
        sd[:] = 0.0
    elif kind == "mixed":
        sd[rng.random(m) < 0.5] = 0.0
    elif kind == "ties":
        mean = np.round(mean, 1)
        sd = np.where(rng.random(m) < 0.5, 0.0, np.round(sd, 1))
    elif kind == "unsolvable":  # every ratio at most e^-10 < p0: no root
        log_g_prev = np.full(m, 10.0)
    p0 = draw(st.sampled_from([1e-3, 0.1, 0.3, 0.5]))
    model = _FixedPosterior()
    model.design_values = np.array([rng.normal(0.0, 10.0 ** draw(st.floats(-1.0, 3.0)))])
    return model, mean, sd, np.maximum(log_g_prev, sur._LOG_FLOOR), p0


def _posterior(mean, sd, p0=0.3):
    return _FixedPosterior(), np.array(mean), np.array(sd), np.zeros(len(mean)), p0


def _outcome(solve, args):
    try:
        return solve(*args).hex()
    except ThresholdSolverError:
        return "ThresholdSolverError"


class TestThresholdReplay:
    """solve_threshold answers as the plain bisection does, bit for bit,
    with fewer predicate evaluations."""

    @settings(max_examples=400, deadline=None)
    @given(_threshold_inputs())
    @example(_posterior([0.3], [0.0]))  # m = 1 on a plateau
    @example(_posterior([0.3], [0.7]))  # m = 1
    @example(_posterior([1.0, 1.0, 2.0, 2.0], [0.0, 0.0, 0.0, 0.0]))  # ties on a plateau
    @example(_posterior([1.0, 1.0, 2.0, 2.0], [0.5, 0.5, 0.5, 0.5]))  # tied posteriors
    @example(_posterior([1.0, 1.0, 2.0, 2.0], [0.0, 0.5, 0.0, 0.5]))
    def test_same_bits_as_bisection(self, args):
        assert _outcome(solve_threshold, args) == _outcome(_bisection_threshold, args)

    def test_predicate_calls_bounded(self, monkeypatch):
        # the closed-form input of TestSolveThreshold: the bisection alone
        # takes about 40 predicate evaluations, the replay at most 20
        calls = []
        real = bss.log_coverage_g

        def counting(*args):
            calls.append(1)
            return real(*args)

        m = 64
        args = (_FixedPosterior(), np.full(m, 0.7), np.full(m, 1.3), np.zeros(m), 0.1)
        monkeypatch.setattr(bss, "log_coverage_g", counting)
        u = solve_threshold(*args)
        monkeypatch.undo()
        assert len(calls) <= 20
        assert u.hex() == _bisection_threshold(*args).hex()


def _stops(mean, sd, eta, m, p0):
    # run_bss's stopping rule, with g_prev = 1, u_t = 0 and a zero-nugget floor
    floor = sur.model_var_floor(_FixedPosterior())
    return misclass_sum(mean, sd, np.zeros(m), 0.0, floor) <= eta * m * p0


class TestStoppingCheck:
    def test_fully_classified_stops(self):
        m = 100
        mean = np.linspace(-3, 3, m)
        assert _stops(mean, np.zeros(m), 1e-9, m, 0.1)

    def test_boundary_is_inclusive(self):
        # one particle with tau/g exactly eta * m * p0
        m, p0 = 10, 0.1
        mean = np.concatenate([[0.0], np.full(9, 50.0)])  # first: tau = 0.5
        sd = np.concatenate([[1.0], np.zeros(9)])
        eta = 0.5 / (m * p0)
        assert _stops(mean, sd, eta, m, p0)
        assert not _stops(mean, sd, eta * 0.999, m, p0)

    def test_expected_misclassified_particle_count_scale(self):
        # eta * m * p0 with m = 1000, p0 = 0.1, eta = 0.5 allows 50 expected
        # misclassified particles
        assert 0.5 * 1000 * 0.1 == 50.0


class TestKappaAndCovRecursion:
    def test_constant_ratios_have_zero_kappa(self):
        assert kappa_hat(np.full(50, 0.3), 0.3) == 0.0

    def test_hand_computation(self):
        ratios = np.array([0.2] * 5 + [0.8] * 5)
        assert kappa_hat(ratios, 0.5) == pytest.approx(0.09 / 0.25, rel=1e-12)

    def test_bernoulli_limit(self):
        rng = substream(1, "kap")
        p = 0.3
        r = (rng.random(1_000_000) < p).astype(float)
        p_hat = r.mean()
        assert kappa_hat(r, p_hat) == pytest.approx((1 - p) / p, rel=0.02)

    def test_zero_p_hat_rejected(self):
        with pytest.raises(ValueError):
            kappa_hat(np.zeros(4), 0.0)

    def test_recursion_fixed_point(self):
        np.testing.assert_array_equal(cov_recursion([0.0, 0.0, 0.0], 100), np.zeros(3))

    def test_single_stage(self):
        assert cov_recursion([2.0], 1000)[0] == pytest.approx(math.sqrt(2.0 / 1000), rel=1e-12)

    def test_equal_kappas_closed_form(self):
        kappa, m, T = 3.0, 500, 6
        deltas = cov_recursion([kappa] * T, m)
        want = math.sqrt((1 + kappa / m) ** T - 1)
        assert deltas[-1] == pytest.approx(want, rel=1e-12)
        assert deltas[-1] ** 2 == pytest.approx(T * kappa / m, rel=0.05)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            cov_recursion([-0.1], 100)


class _PerfectModel:
    """Zero-variance surrogate whose mean is the true limit state."""

    class _H:
        sigma2 = 1.0
        ranges = np.array([1.0])

    hyper = _H()
    jitter = 0.0

    def __init__(self, X, y, fn):
        self.design_points = X
        self.design_values = y
        self.fn = fn

    def predict(self, Z):
        Z = np.atleast_2d(Z)
        return self.fn(Z), np.zeros(Z.shape[0])

    def posterior_cov(self, A, B):
        return np.zeros((np.atleast_2d(A).shape[0], np.atleast_2d(B).shape[0]))

    def cross_sd(self, x, x_new, var_floor):
        return np.zeros(np.atleast_2d(x).shape[0])


@pytest.fixture
def eight_design_points(monkeypatch):
    # n0 = 8 initial design points on the 1-D problems
    monkeypatch.setattr(bss, "N0_PER_DIM", 8)


class TestRunBss:
    @pytest.mark.usefixtures("eight_design_points")
    def test_single_stage_reduces_to_mean_coverage(self, monkeypatch):
        # alpha > p0: the first solved threshold already exceeds u, so the run
        # terminates at T = 1 with estimate (1/m) sum g_1
        monkeypatch.setattr(bss, "MAX_TOTAL_EVALUATIONS", 200)
        prob = _problem(float(ndtri(1 - 0.2)))
        cfg = BssConfig(m=500)
        res = run_bss(prob, cfg, seed=2)
        assert res.error is None
        assert len(res.stages) == 1
        assert res.alpha_hat == pytest.approx(res.stages[0].p_hat, rel=1e-12)
        assert res.alpha_hat == pytest.approx(0.2, rel=0.35)

    @pytest.mark.usefixtures("eight_design_points")
    def test_product_telescoping_and_stage_invariants(self):
        prob = _problem(float(ndtri(1 - 1e-4)))
        cfg = BssConfig(m=1000)
        res = run_bss(prob, cfg, seed=3)
        assert res.error is None
        prod = 1.0
        for s in res.stages:
            prod *= s.p_hat
        assert res.alpha_hat == pytest.approx(prod, rel=1e-12)
        # intermediate stages satisfy the threshold equation
        for s in res.stages[:-1]:
            assert s.p_hat == pytest.approx(0.1, rel=1e-5)
        thresholds = [s.u_t for s in res.stages]
        assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
        assert thresholds[-1] == prob.threshold
        # ledger split
        assert res.n_total == res.n_initial + res.n_intermediate + res.n_final
        assert res.n_initial == 8

    @pytest.mark.usefixtures("eight_design_points")
    def test_estimate_quality_1d_tail(self):
        alpha = 1e-4
        prob = _problem(float(ndtri(1 - alpha)))
        cfg = BssConfig(m=1000)
        ests = [run_bss(prob, cfg, seed=s).alpha_hat for s in range(5)]
        gm = math.exp(float(np.mean(np.log(ests))))
        assert alpha / 1.6 <= gm <= alpha * 1.6

    def test_perfect_surrogate_equals_subset_simulation(self, monkeypatch):
        # indicator limit of the coverage: same trajectories, same estimate
        prob = _problem(float(ndtri(1 - 1e-4)))

        def factory(X, y, prev, rng):
            return _PerfectModel(X, y, prob.limit_state)

        monkeypatch.setattr(bss, "_default_model_factory", factory)
        monkeypatch.setattr(bss, "N_MIN", 0)
        for seed in (0, 1, 5):
            rb = run_bss(prob, BssConfig(m=2000), seed)
            rs = run_subset_simulation(prob, SubsetSimConfig(m=2000, m0=200), seed)
            assert rb.alpha_hat == pytest.approx(rs.alpha_hat, rel=1e-10)
            assert len(rb.stages) == len(rs.stages)
            assert [s.p_hat for s in rb.stages] == [s.p_hat for s in rs.stages]

    @pytest.mark.usefixtures("eight_design_points")
    def test_max_total_evaluations_partial_result(self, monkeypatch):
        monkeypatch.setattr(bss, "MAX_TOTAL_EVALUATIONS", 12)
        prob = _problem(float(ndtri(1 - 1e-6)))
        cfg = BssConfig(m=500)
        res = run_bss(prob, cfg, seed=4)
        assert res.error is not None and "max_total_evaluations" in res.error
        assert res.n_total >= 12

    @pytest.mark.usefixtures("eight_design_points")
    def test_max_stages_flag(self, monkeypatch):
        monkeypatch.setattr(bss, "MAX_STAGES", 1)
        prob = _problem(float(ndtri(1 - 1e-5)))
        cfg = BssConfig(m=300)
        res = run_bss(prob, cfg, seed=5)
        assert res.error is not None and "max_stages" in res.error

    @pytest.mark.filterwarnings("ignore:ReML optimizer did not converge")
    @pytest.mark.parametrize("budget, limit, counts", [
        ("max_stages", 2, (5, 0)),
        ("max_total_evaluations", 30, (20, 0)),
    ])
    def test_cut_short_stage_counts_as_intermediate(self, monkeypatch, budget, limit, counts):
        # neither run reaches u, so no evaluation is final; the run that
        # ends on max_stages makes no move after its last stage
        monkeypatch.setattr(bss, budget.upper(), limit)
        problem = four_branch().problem
        res = run_bss(problem, BssConfig(m=500), seed=0)
        assert res.error == f"{budget}={limit} exceeded"
        assert all(s.u_t < problem.threshold for s in res.stages)
        assert (res.n_intermediate, res.n_final) == counts
        assert res.n_initial + res.n_intermediate + res.n_final == res.n_total
        if budget == "max_stages":
            assert res.stages[0].acceptance and not res.stages[-1].acceptance
            # bss scores every proposal: each sweep's interval is one point
            assert all(lo == hi for lo, hi in res.stages[0].acceptance)

    @pytest.mark.usefixtures("eight_design_points")
    def test_trace_collection(self, recwarn):
        prob = _problem(float(ndtri(1 - 1e-3)))
        cfg = BssConfig(m=400)
        res = run_bss(prob, cfg, seed=6)
        assert res.trace, "expected SUR trace rows"
        row = res.trace[0]
        assert set(row) == {"n", "x_new", "criterion", "u_t", "stage"}
        ns = [r["n"] for r in res.trace]
        assert ns == list(range(res.n_initial + 1, res.n_total + 1))  # one row per SUR evaluation
        # at times every sd here is below the floor: the all-zero-score
        # fallback then picks the particle farthest from the design, never a
        # design point, so no refit meets a duplicate
        picks = [tuple(r["x_new"]) for r in res.trace]
        assert len(set(picks)) == len(picks)
        assert not [w for w in recwarn if "bss refit failed" in str(w.message)]

    @pytest.mark.usefixtures("eight_design_points")
    def test_determinism(self):
        prob = _problem(float(ndtri(1 - 1e-3)))
        cfg = BssConfig(m=400)
        a = run_bss(prob, cfg, seed=7)
        b = run_bss(prob, cfg, seed=7)
        assert a.alpha_hat == b.alpha_hat
        assert a.n_total == b.n_total

    @pytest.mark.usefixtures("eight_design_points")
    def test_refit_failure_warns_and_keeps_hyperparameters(self, monkeypatch):
        # a refit that raises ValueError: the run warns each time, instead of
        # swallowing it, and refits on the first fit's hyperparameters
        prob = _problem(float(ndtri(1 - 1e-3)))
        prevs = []
        default = bss._default_model_factory

        def factory(X, y, prev, rng):
            if prev is None:
                return default(X, y, prev, rng)
            prevs.append(prev)
            raise ValueError("refit refused")

        monkeypatch.setattr(bss, "_default_model_factory", factory)
        with pytest.warns(RuntimeWarning) as record:
            res = run_bss(prob, BssConfig(m=400), seed=7)
        assert res.error is None
        messages = [str(w.message) for w in record if w.category is RuntimeWarning]
        assert len(messages) == len(prevs) == res.n_total - res.n_initial > 0
        assert all(m.startswith("bss refit failed, previous hyperparameters kept")
                   and "ValueError('refit refused')" in m for m in messages)
        assert all(p is prevs[0] for p in prevs)

    @pytest.mark.usefixtures("eight_design_points")
    def test_failed_fallback_keeps_previous_model(self, monkeypatch):
        # the refit raises, and so does the model on the previous
        # hyperparameters: the run warns twice per evaluation and goes on
        # with the model it had
        prob = _problem(float(ndtri(1 - 1e-3)))

        def factory(X, y, prev, rng):
            if prev is None:
                return gp.GpModel(X, y, gp.fit_reml(X, y, n_starts=bss.REML_STARTS, rng=rng))
            raise ValueError("refit refused")

        def no_model(X, y, hyper):
            raise np.linalg.LinAlgError("model refused")

        seen = []

        def select(model, *args):
            seen.append(model)
            return sur.select_next_point(model, *args)

        monkeypatch.setattr(bss, "_default_model_factory", factory)
        monkeypatch.setattr(bss, "GpModel", no_model)
        monkeypatch.setattr(bss, "select_next_point", select)
        monkeypatch.setattr(bss, "MAX_TOTAL_EVALUATIONS", 14)
        with pytest.warns(RuntimeWarning) as record:
            res = run_bss(prob, BssConfig(m=400), seed=7)
        n_refits = res.n_total - res.n_initial
        messages = [str(w.message) for w in record if w.category is RuntimeWarning]
        assert n_refits == len(seen) > 0
        assert messages[1::2] == ["bss refit on the previous hyperparameters failed, previous "
                                  "model kept: LinAlgError('model refused')"] * n_refits
        assert all(m.startswith("bss refit failed") for m in messages[::2])
        assert all(model is seen[0] for model in seen)

    @pytest.mark.usefixtures("eight_design_points")
    def test_degenerate_weights_end_the_run_with_its_stages(self, monkeypatch):
        # the second stage's reweight finds no weight: the run returns what
        # it has, with the error, instead of raising
        prob = _problem(float(ndtri(1 - 1e-4)))
        calls = []

        def reweight(log_g_t, log_g_prev):
            calls.append(None)
            if len(calls) == 2:
                raise smc.DegenerateWeightsError("all weights are zero")
            return smc.reweight(log_g_t, log_g_prev)

        monkeypatch.setattr(bss, "reweight", reweight)
        res = run_bss(prob, BssConfig(m=500), seed=3)
        assert res.error == "all weights are zero"
        assert [s.t for s in res.stages] == [1, 2]
        assert res.stages[0].acceptance and not res.stages[1].acceptance  # no move after stage 2
        assert res.alpha_hat == pytest.approx(res.stages[0].p_hat * res.stages[1].p_hat,
                                              rel=1e-12)
        assert res.delta_hat == res.stages[-1].delta_hat
        assert res.n_total == res.n_initial + res.n_intermediate + res.n_final

    def test_classified_cloud_repeats_no_design_point(self, recwarn):
        # on this linear problem N_MIN forces SUR evaluations after every
        # particle is classified: every SUR score is 0, and the pick is the
        # particle farthest from the design, never a point already evaluated
        evaluated = []

        def f(X):
            evaluated.append(X.copy())
            return X[:, 0] + X[:, 1]

        prob = Problem(f, InputDistribution.iid_normal(2), 6.7)
        res = run_bss(prob, BssConfig(m=1000), seed=0)
        assert res.error is None
        X = np.vstack(evaluated)
        assert X.shape[0] == res.n_total
        assert np.unique(X, axis=0).shape[0] == res.n_total  # no repeated point
        assert not [w for w in recwarn if "bss refit failed" in str(w.message)]

    def test_nonfinite_sur_value_stops_the_run(self, monkeypatch):
        # the limit state's 4th call, the third SUR evaluation, returns NaN:
        # the run raises, naming the value and the point, before a fit sees it
        calls, fitted = [], []

        def f(X):
            calls.append(X.copy())
            return np.full(len(X), np.nan) if len(calls) == 4 else X[:, 0] + X[:, 1]

        default = bss._default_model_factory

        def factory(X, y, prev, rng):
            fitted.append(y.copy())
            return default(X, y, prev, rng)

        monkeypatch.setattr(bss, "_default_model_factory", factory)
        with pytest.raises(ValueError) as info:
            run_bss(Problem(f, InputDistribution.iid_normal(2), 6.0), BssConfig(m=1000), seed=0)
        assert str(info.value) == (f"limit state returned nan at x = {calls[3][0].tolist()}; "
                                   "bss needs finite values")
        assert [len(X) for X in calls] == [10, 1, 1, 1]
        assert len(fitted) == 3 and all(np.isfinite(y).all() for y in fitted)

    def test_nonfinite_design_value_stops_the_run(self, monkeypatch):
        # a design value that is not finite: the run raises before the first fit
        design = []

        def f(X):
            design.append(X.copy())
            y = X[:, 0] + X[:, 1]
            y[[3, 7]] = [-np.inf, np.nan]
            return y

        def factory(X, y, prev, rng):
            raise AssertionError("no fit may see the design")

        monkeypatch.setattr(bss, "_default_model_factory", factory)
        with pytest.raises(ValueError) as info:
            run_bss(Problem(f, InputDistribution.iid_normal(2), 6.0), BssConfig(m=1000), seed=0)
        assert str(info.value) == (f"limit state returned -inf at x = {design[0][3].tolist()}; "
                                   "bss needs finite values")

    @pytest.mark.usefixtures("eight_design_points")
    def test_refit_error_of_other_type_propagates(self, monkeypatch):
        prob = _problem(float(ndtri(1 - 1e-3)))
        default = bss._default_model_factory

        def factory(X, y, prev, rng):
            if prev is not None:
                raise TypeError("not a numerical failure")
            return default(X, y, prev, rng)

        monkeypatch.setattr(bss, "_default_model_factory", factory)
        with pytest.raises(TypeError, match="not a numerical failure"):
            run_bss(prob, BssConfig(m=400), seed=7)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BssConfig(m=100, p0=1.5)
        with pytest.raises(ValueError):
            BssConfig(m=1)


def test_kernel_threads_change_no_bit(kernel_threads):
    # the SUR pair matrix and posterior_cov run in row blocks on the kernel
    # pool; one thread and two (the default on a 2-CPU host) give the same run
    case = four_branch()

    def signature():
        res = run_bss(case.problem, BssConfig(m=300), 12)
        return res.alpha_hat.hex(), res.n_total, res.trace

    kernel_threads(1)
    one = signature()
    kernel_threads(2)
    assert len(one[2]) > 0
    assert signature() == one


@requires_scipy_117
class TestScipyOracle:
    """The LAPACK, log-sum-exp and coverage fast paths change no bit of a run:
    the same seeded run with scipy's cho_factor / cho_solve / logsumexp and
    the masked coverage path gives the same estimate, budget and SUR trace."""

    @staticmethod
    def _signature(case, m, seed):
        res = run_bss(case.problem, BssConfig(m=m), seed)
        return res.alpha_hat.hex(), res.n_total, res.trace

    @pytest.mark.parametrize("make_case,m,seed", [(cantilever_beam, 500, 11),
                                                  (four_branch, 300, 12)])
    def test_run_matches_scipy_reference(self, monkeypatch, make_case, m, seed):
        case = make_case()
        shipped = self._signature(case, m, seed)

        def masked_log_coverage_g(mean, sd, u):
            col = sur.log_coverage_g(np.asarray(mean)[:, None], np.asarray(sd)[:, None], u)
            return col[:, 0]

        monkeypatch.setattr(gp, "_chol", lambda R: cho_factor(R, lower=True)[0])
        monkeypatch.setattr(gp, "_chol_solve", lambda c, b: cho_solve((c, True), b))
        monkeypatch.setattr(smc, "log_sum_exp", logsumexp)
        monkeypatch.setattr(bss, "log_sum_exp", logsumexp)
        monkeypatch.setattr(bss, "log_coverage_g", masked_log_coverage_g)
        assert len(shipped[2]) > 0
        assert self._signature(case, m, seed) == shipped
