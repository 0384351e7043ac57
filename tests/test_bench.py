"""Benchmark problem definitions and the replication-study harness."""

import math
import os
import warnings

import numpy as np
import pytest

from failprob import bench
from failprob.bench import (
    CASES,
    BenchmarkCase,
    cantilever_beam,
    csv_table,
    four_branch,
    nonlinear_oscillator,
    per_run_seed,
    run_rmse_experiment,
    run_single,
)
from failprob.bench import (
    _BLAS_THREAD_VARS,
    _cantilever_f,
    _four_branch_f,
    _one_blas_thread_env,
    _oscillator_f,
    _worker_pool,
)
from failprob.core import InputDistribution, Problem, kernel_threads, substream


class TestFourBranch:
    def test_hand_values(self):
        assert _four_branch_f(np.array([[0.0, 0.0]]))[0] == pytest.approx(3.0, abs=1e-12)
        # f(7,7): first branch 3 - 14/sqrt(2)
        assert _four_branch_f(np.array([[7.0, 7.0]]))[0] == pytest.approx(
            -6.8994949366116653, abs=1e-12
        )

    def test_failure_at_7_7(self):
        case = four_branch()
        # normalized: failure when -f > 4
        assert case.problem.limit_state(np.array([[7.0, 7.0]]))[0] > case.problem.threshold

    def test_swap_symmetry(self):
        rng = substream(0, "fb")
        X = rng.standard_normal((200, 2))
        np.testing.assert_allclose(
            _four_branch_f(X), _four_branch_f(X[:, ::-1]), atol=1e-12
        )

    def test_reference_value(self):
        case = four_branch()
        assert case.alpha_ref == 5.596e-9
        assert case.problem.dim == 2
        assert case.problem.threshold == 4.0  # normalized from below/-4


class TestCantilever:
    def test_hand_value_at_means(self):
        got = _cantilever_f(np.array([[1e-3, 0.3]]))[0]
        assert got == pytest.approx(0.0027692307692307692, rel=1e-12)

    def test_threshold(self):
        case = cantilever_beam()
        assert case.problem.threshold == pytest.approx(6.0 / 325.0, rel=1e-15)
        assert case.alpha_ref == 3.937e-6

    def test_linearity_in_load(self):
        x = np.array([[1e-3, 0.3], [2e-3, 0.3]])
        f = _cantilever_f(x)
        assert f[1] == pytest.approx(2 * f[0], rel=1e-12)


class TestOscillator:
    def test_hand_value_at_means(self):
        mu = np.array([[1.0, 1.0, 0.1, 0.5, 0.45, 1.0]])
        # w0 = sqrt(1.1); 1.5 - |0.9/1.1 * sin(sqrt(1.1)/2)|
        want = 1.5 - abs(0.9 / 1.1 * math.sin(math.sqrt(1.1) / 2.0))
        assert _oscillator_f(mu)[0] == pytest.approx(want, rel=1e-12)
        assert _oscillator_f(mu)[0] == pytest.approx(1.0903383684164484, rel=1e-12)

    def test_zero_force_term(self):
        x = np.array([[1.0, 1.0, 0.1, 0.7, 0.0, 1.0]])
        assert _oscillator_f(x)[0] == pytest.approx(3 * 0.7, rel=1e-12)

    def test_monotone_in_abs_force(self):
        base = np.array([1.0, 1.0, 0.1, 0.5, 0.45, 1.0])
        rows = np.vstack([base, base, base])
        rows[:, 4] = [0.2, 0.5, -0.8]
        f = _oscillator_f(rows)
        assert f[0] > f[1] > f[2]

    def test_reference(self):
        case = nonlinear_oscillator()
        assert case.alpha_ref == 1.514e-8
        assert case.problem.dim == 6

    def test_guard_returns_nan(self):
        bad = np.array([[-1.0, 1.0, 0.1, 0.5, 0.45, 1.0]])
        assert np.isnan(_oscillator_f(bad)[0])


class TestTotality:
    @pytest.mark.parametrize("factory", [four_branch, cantilever_beam, nonlinear_oscillator])
    def test_fuzz_no_nonfinite_outputs(self, factory):
        # 1e7 samples from the input law, streamed in chunks
        case = factory()
        rng = substream(123, "fuzz", case.name)
        total = 10_000_000
        chunk = 1_000_000
        for _ in range(total // chunk):
            X = case.problem.input.sample(chunk, rng)
            vals = case.problem.limit_state(X)
            assert np.all(np.isfinite(vals))


class TestPerRunSeeds:
    def test_stable_and_distinct(self):
        s1 = per_run_seed(7, "four-branch", "bss", 1000, 3)
        s2 = per_run_seed(7, "four-branch", "bss", 1000, 3)
        s3 = per_run_seed(7, "four-branch", "bss", 1000, 4)
        assert s1 == s2 != s3
        assert s1 >= 0


def _toy_case(alpha=0.5):
    from scipy.special import ndtri

    def f(X):
        return X[:, 0]

    problem = Problem(f, InputDistribution.iid_normal(1), float(ndtri(1 - alpha)))
    return BenchmarkCase("toy", problem, alpha_ref=alpha, alpha_ref_cov=0.0)


class TestRmseExperiment:
    def setup_method(self):
        CASES["toy"] = _toy_case

    def teardown_method(self):
        CASES.pop("toy", None)

    def test_mc_rrmse_matches_bernoulli_error(self):
        table = run_rmse_experiment("toy", ["mc"], [10_000], runs=100, seed=5)
        row = table.rows[0]
        want = math.sqrt((1 - 0.5) / (0.5 * 10_000))
        assert row.rel_rmse == pytest.approx(want, rel=0.30)
        assert row.runs == 100
        assert row.n_evals_mean == 10_000

    def test_ss_rrmse_tracks_approximation(self):
        CASES["toy"] = lambda: _toy_case(1e-3)
        table = run_rmse_experiment("toy", ["ss"], [2000], runs=30, seed=6)
        row = table.rows[0]
        T = math.ceil(math.log(1e-3) / math.log(0.1))
        want = math.sqrt(T * 0.9 / (0.1 * 2000))
        assert want / 2 <= row.rel_rmse <= want * 2

    def test_csv_schema(self):
        table = run_rmse_experiment("toy", ["mc"], [1000, 2000], runs=3, seed=7)
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == (
            "method,case,m,runs,failures,mean_est,rel_rmse,rel_abs_bias,cov,"
            "n_evals_mean,n_evals_init,n_evals_intermediate,n_evals_final,wall_ms_median"
        )
        assert len(lines) == 3  # one row per m
        per = table.per_run_csv().strip().splitlines()
        assert len(per) == 1 + 2 * 3
        assert per[0] == ("method,case,m,run,alpha_hat,delta_hat,n_total,n_reported,"
                          "n_init,n_intermediate,n_final,error,wall_ms")

    def test_repeated_m_rejected(self):
        # a repeated m would pool its runs into one row, each seed twice
        with pytest.raises(ValueError, match="distinct"):
            run_rmse_experiment("toy", ["mc"], [1000, 1000], runs=3, seed=7)

    def test_repeated_method_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            run_rmse_experiment("toy", ["mc", "ss", "mc"], [1000], runs=3, seed=7)

    def test_unknown_case_raises_before_any_run(self, monkeypatch):
        def no_run(task):
            raise AssertionError(f"ran {task}")

        monkeypatch.setattr(bench, "_study_run", no_run)
        with pytest.raises(ValueError, match="unknown case 'nope'"):
            run_rmse_experiment("nope", ["mc"], [100], runs=2, seed=0)

    def test_unsorted_m_values_give_ascending_rows(self):
        table = run_rmse_experiment("toy", ["mc", "ss"], [2000, 500, 1000], runs=2, seed=7)
        assert [(r.method, r.m) for r in table.rows] == [
            (method, m) for method in ("mc", "ss") for m in (500, 1000, 2000)]
        assert [(r.method, r.m, r.run) for r in table.per_run] == [
            (method, m, run) for method in ("mc", "ss") for m in (500, 1000, 2000)
            for run in range(2)]

    def test_csv_quotes_cells_with_commas(self):
        text = csv_table(["a", "b"], [["x, y", 1], [None, 0.5]])
        assert text == 'a,b\n"x, y",1\n,0.5\n'

    def test_parallel_equals_serial(self):
        # worker processes re-import the case registry, so use a real case;
        # wall-clock columns are excluded (timing is not deterministic).
        # Seed 11 is one whose bss runs raise a ReML warning
        def study(method, m, runs, jobs):
            # warnings raised in worker processes reach this one, in run order
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                table = run_rmse_experiment("cantilever", [method], [m], runs=runs, seed=11,
                                            jobs=jobs)
            return table, [(w.category, str(w.message)) for w in caught]

        env = dict(os.environ)
        for method, m, runs in (("mc", 2000, 6), ("bss", 300, 2)):
            t1, warned1 = study(method, m, runs, 1)
            t2, warned2 = study(method, m, runs, 2)
            assert _strip_wall(t1.to_csv()) == _strip_wall(t2.to_csv())
            assert _strip_wall(t1.per_run_csv()) == _strip_wall(t2.per_run_csv())
            assert warned1 == warned2
            if method == "bss":
                assert warned1, "expected ReML warnings from the bss runs"
        assert dict(os.environ) == env

    def test_two_method_call_equals_one_method_calls(self):
        # one call over both methods gives the rows, per-run rows and warnings
        # of the two one-method calls in turn, at any `jobs`; seed 11 is one
        # whose bss runs raise a ReML warning
        def study(methods, jobs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                table = run_rmse_experiment("cantilever", methods, [400, 300], runs=2, seed=11,
                                            jobs=jobs)
            return (_strip_wall(table.to_csv()), _strip_wall(table.per_run_csv()),
                    [(w.category, str(w.message)) for w in caught])

        mc, bss = study(["mc"], 1), study(["bss"], 1)
        assert bss[2], "expected ReML warnings from the bss runs"
        want = (mc[0] + bss[0][1:], mc[1] + bss[1][1:], mc[2] + bss[2])
        for jobs in (1, 2):
            assert study(["mc", "bss"], jobs) == want

    def test_worker_pool_entered_once_per_call(self, monkeypatch):
        entered = []
        pool = bench._worker_pool

        def counting_pool(jobs):
            entered.append(jobs)
            return pool(jobs)

        monkeypatch.setattr(bench, "_worker_pool", counting_pool)
        table = run_rmse_experiment("cantilever", ["mc", "ss"], [500, 300], runs=2, seed=3,
                                    jobs=2)
        assert entered == [2]
        assert len(table.rows) == 4 and len(table.per_run) == 8
        run_rmse_experiment("cantilever", ["mc", "ss"], [300], runs=2, seed=3)
        assert entered == [2]

    def test_worker_blas_env_is_restored(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        with _one_blas_thread_env():
            assert [os.environ.get(v) for v in _BLAS_THREAD_VARS] == ["1", "1", "1"]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_spawned_worker_runs_one_kernel_thread(self):
        # `jobs` workers keep at most `jobs` threads busy
        with _worker_pool(2) as pool:
            assert pool.submit(kernel_threads).result(timeout=120) == 1

    def test_run_failures_are_counted(self):
        CASES["broken"] = lambda: BenchmarkCase(
            "broken",
            Problem(lambda X: np.full(X.shape[0], np.nan), InputDistribution.iid_normal(1), 0.5),
            alpha_ref=0.1,
            alpha_ref_cov=0.0,
        )
        try:
            table = run_rmse_experiment("broken", ["mc"], [100], runs=3, seed=9)
            assert table.rows[0].failures > 0
        finally:
            CASES.pop("broken", None)

    def test_run_single_dispatch(self):
        CASES["toy"] = _toy_case
        res, wall_ms = run_single("toy", "mc", 1000, 0, 11)
        assert res.method == "mc" and 0.4 < res.alpha_hat < 0.6
        assert wall_ms > 0.0
        with pytest.raises(ValueError):
            run_single("toy", "nope", 100, 0, 0)


def _strip_wall(csv):
    """CSV lines without their trailing wall-clock column."""
    return [line.rsplit(",", 1)[0] for line in csv.splitlines()]
