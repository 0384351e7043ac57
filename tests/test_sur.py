"""Coverage/misclassification functions and the SUR acquisition rule."""

import math
import multiprocessing
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtr, owens_t

from failprob import core, sur
from failprob.core import substream
from failprob.gp import CovarianceHyperparams, GpModel
from failprob.stats import binorm_cdf, norm_cdf
from failprob.sur import (
    _expected_misclass_matrix,
    coverage_g,
    expected_misclass_after,
    log_coverage_g,
    misclass_tau,
    model_var_floor,
    prune,
    select_next_point,
)

_PHI_196 = 0.97500210485177956586


class TestCoverage:
    def test_half_at_threshold(self):
        assert coverage_g(1.3, 0.4, 1.3) == 0.5

    def test_degenerate_posterior_indicator(self):
        assert coverage_g(2.0, 0.0, 1.0) == 1.0
        assert coverage_g(0.5, 0.0, 1.0) == 0.0

    def test_normal_cdf_value(self):
        assert coverage_g(1.96, 1.0, 0.0) == pytest.approx(_PHI_196, abs=1e-12)

    def test_log_version_matches(self):
        rng = substream(0, "cov")
        mean = rng.normal(size=100)
        sd = rng.uniform(0.1, 2.0, 100)
        np.testing.assert_allclose(
            np.exp(log_coverage_g(mean, sd, 0.3)), coverage_g(mean, sd, 0.3), atol=1e-14
        )

    def test_negative_sd_rejected(self):
        with pytest.raises(ValueError):
            coverage_g(0.0, -0.1, 0.0)

    def test_log_fast_path_matches_masked_path(self):
        # 1-D arrays with sd > 0 skip the masks; a (k, 1) column takes the
        # masked path through the same elementwise arithmetic
        rng = substream(1, "cov")
        mean = rng.normal(0.0, 30.0, 500)
        sd = rng.uniform(1e-8, 3.0, 500)
        for u in (0.0, 2.5, -40.0):
            fast = log_coverage_g(mean, sd, u)
            masked = log_coverage_g(mean[:, None], sd[:, None], u)[:, 0]
            assert fast.tobytes() == masked.tobytes()
        sd[7] = 0.0  # one degenerate sd: the masked path on 1-D input
        out = log_coverage_g(mean, sd, 0.0)
        assert out[7] == (0.0 if mean[7] > 0.0 else -np.inf)
        assert out[:7].tobytes() == log_coverage_g(mean[:7], sd[:7], 0.0).tobytes()


class TestMisclass:
    def test_endpoints(self):
        assert misclass_tau(0.0) == 0.0
        assert misclass_tau(1.0) == 0.0
        assert misclass_tau(0.5) == 0.5
        assert misclass_tau(0.2) == pytest.approx(0.2)

    @given(g=st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_range_property(self, g):
        t = misclass_tau(g)
        assert 0.0 <= t <= 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            misclass_tau(1.5)


def _toy_model(seed=0, n=6, u=0.4):
    rng = substream(seed, "sur-model")
    X = np.sort(rng.uniform(-2, 2, n))[:, None]
    y = np.sin(1.7 * X[:, 0])
    return GpModel(X, y, CovarianceHyperparams(1.0, np.array([0.9]))), u


class TestExpectedMisclassAfter:
    def test_self_evaluation_resolves(self):
        m, u = _toy_model()
        x = np.array([0.33])
        assert expected_misclass_after(m, x, x, u) <= 1e-10

    def test_design_point_is_uninformative(self):
        m, u = _toy_model()
        x = np.array([0.33])
        mu, v = m.predict(x)
        tau = misclass_tau(coverage_g(mu, math.sqrt(v), u))
        got = expected_misclass_after(m, x, m.design_points[2], u)
        assert got == pytest.approx(tau, abs=1e-12)

    def test_classified_point_returns_zero(self):
        m, u = _toy_model()
        assert expected_misclass_after(m, m.design_points[1], np.array([0.9]), u) == 0.0

    def test_monte_carlo_oracle(self):
        m, u = _toy_model()
        x = np.array([0.33])
        x_new = np.array([0.9])
        mu_x, v_x = m.predict(x)
        mu_n, v_n = m.predict(x_new)
        k = m.posterior_cov(x[None, :], x_new[None, :])[0, 0]
        formula = expected_misclass_after(m, x, x_new, u)
        rng = substream(1, "mc-oracle")
        n_draw = 1_000_000
        y_new = mu_n + math.sqrt(v_n) * rng.standard_normal(n_draw)
        mu_post = mu_x + k / v_n * (y_new - mu_n)
        sd_post = math.sqrt(max(v_x - k * k / v_n, 0.0))
        g_post = norm_cdf((mu_post - u) / sd_post)
        tau_post = np.minimum(g_post, 1.0 - g_post)
        se = tau_post.std(ddof=1) / math.sqrt(n_draw)
        assert formula == pytest.approx(float(tau_post.mean()), abs=3 * se)

    def test_information_never_hurts(self):
        m, u = _toy_model()
        rng = substream(2, "pairs")
        for _ in range(300):
            xa = rng.uniform(-2.5, 2.5, 1)
            xb = rng.uniform(-2.5, 2.5, 1)
            mu, v = m.predict(xa)
            tau = misclass_tau(coverage_g(mu, math.sqrt(v), u))
            assert expected_misclass_after(m, xa, xb, u) <= tau + 1e-10


def _bivariate_reference(mean_x, sd_x, s_mat, u):
    """Phi(b1) + Phi(b2) - 2 Phi2(b1, b2; rho) over a (point x candidate) grid."""
    num = (u - mean_x)[:, None]
    b1 = num / s_mat
    b2 = np.broadcast_to(num / sd_x[:, None], s_mat.shape)
    rho = np.clip(s_mat / sd_x[:, None], 0.0, 1.0)
    return norm_cdf(b1) + norm_cdf(b2) - 2.0 * binorm_cdf(b1, b2, rho)


class TestExpectedMisclassMatrix:
    """The Owen's T kernel of select_next_point against its bivariate form."""

    U = 0.7
    VAR_FLOOR = 1e-40  # sd floor 1e-20: every rho >= 1e-12 below is a valid pair

    def test_matches_bivariate_reference(self):
        rng = substream(6, "owens-t-grid")
        b2 = np.concatenate([rng.uniform(-40.0, 40.0, 200), [-40.0, -8.0, 0.0, 1e-3, 8.0, 40.0]])
        rho = np.concatenate([[1e-12, 1e-9, 1e-6, 1e-3, 0.3, 0.75, 0.925, 0.99, 1.0 - 1e-9],
                              10.0 ** rng.uniform(-12.0, 0.0, 100), rng.uniform(0.9, 1.0, 50),
                              [1.0]])
        sd_x = rng.uniform(0.05, 3.0, b2.size)
        mean_x = self.U - b2 * sd_x
        sd_floor = math.sqrt(self.VAR_FLOOR)
        s_mat = np.hstack([rho[None, :] * sd_x[:, None], np.zeros((b2.size, 1)),
                           np.full((b2.size, 1), sd_floor)])  # uncorrelated: s <= floor
        # two classified rows: sd_x at and below the floor
        mean_x = np.append(mean_x, [self.U, self.U - 1.0])
        sd_x = np.append(sd_x, [sd_floor, 0.0])
        s_mat = np.vstack([s_mat, np.full((2, s_mat.shape[1]), 0.3)])

        E, tau = _expected_misclass_matrix(mean_x, sd_x, s_mat, self.U, self.VAR_FLOOR)
        n_rho = rho.size
        ref = _bivariate_reference(mean_x[:-2], sd_x[:-2], s_mat[:-2, :n_rho], self.U)
        np.testing.assert_allclose(E[:-2, :n_rho], ref, rtol=0.0, atol=1e-12)
        assert np.all(E[:-2, n_rho - 1] == 0.0)  # rho = 1: the evaluation resolves x
        np.testing.assert_array_equal(E[:-2, n_rho:], np.repeat(tau[:-2, None], 2, axis=1))
        np.testing.assert_allclose(
            tau[:-2], misclass_tau(coverage_g(mean_x[:-2], sd_x[:-2], self.U)), rtol=0.0, atol=1e-15)
        assert np.all(E[-2:] == 0.0) and np.all(tau[-2:] == 0.0)

    @given(b2=st.floats(-40.0, 40.0), sd=st.floats(0.05, 3.0),
           rho_a=st.floats(1e-12, 1.0), rho_b=st.floats(1e-12, 1.0))
    @settings(max_examples=500, deadline=None)
    def test_bounded_and_monotone_in_rho(self, b2, sd, rho_a, rho_b):
        # information never hurts: 0 <= E <= tau(x), and a candidate more
        # correlated with x leaves less expected misclassification. Owen's T
        # keeps the order to a relative 1e-12 until its values near the
        # smallest normal double (|b2| ~ 37.5), where they lose precision.
        lo, hi = sorted((rho_a, rho_b))
        mean_x = np.array([self.U - b2 * sd])
        sd_x = np.array([sd])
        E, tau = _expected_misclass_matrix(mean_x, sd_x, np.array([[lo * sd, hi * sd]]),
                                           self.U, self.VAR_FLOOR)
        e_lo, e_hi = E[0]
        assert 0.0 <= e_hi and 0.0 <= e_lo
        assert e_lo <= tau[0] + 1e-15 and e_hi <= tau[0] + 1e-15
        assert e_hi <= e_lo * (1.0 + 1e-12) + np.finfo(float).tiny


class _GridModel:
    """Stands in for a GpModel in `expected_misclass_after`: point [i] has
    posterior mean[i] and sd[i], and s_n(point [i], point [j]) = s[i, j]."""

    jitter = 0.0
    hyper = CovarianceHyperparams(1.0, np.array([1.0]))

    def __init__(self, mean, sd, s):
        self.mean, self.sd, self.s = mean, sd, s

    def predict(self, x):
        i = int(x[0])
        return self.mean[i], self.sd[i] ** 2

    def cross_sd(self, x, x_new, var_floor):
        return self.s[int(x[0]), int(x_new[0])]


def _rho_max(b2):
    """The largest rho at which an entry is tau to rounding, per row."""
    cut = 2.0 * (55.0 * math.log(2.0) - log_ndtr(-np.abs(b2)))
    return np.abs(b2) / np.sqrt(b2 * b2 + cut)


class TestOwensTScreen:
    """Owen's T runs only where 2 T(b2, a) can differ from tau = Phi(-|b2|)."""

    U = 0.3
    # rho / rho_max per column: below the cut, then above it up to rho = 1
    BELOW = np.array([1e-9, 1e-3, 0.3, 0.9, 0.999, 1.0 - 1e-6])
    ABOVE = np.array([1.0 + 1e-6, 1.001, 1.02, 1.1, 1.3, 1.6, 2.5])

    def _grid(self):
        b2 = np.concatenate([np.linspace(0.0, 38.0, 77), -np.linspace(0.25, 37.75, 16)])
        sd_x = np.linspace(0.1, 3.0, b2.size)
        mean_x = self.U - b2 * sd_x
        rho = np.minimum(_rho_max(b2)[:, None] * np.concatenate([self.BELOW, self.ABOVE]),
                         np.concatenate([np.full(self.BELOW.size, 1.0),
                                         np.linspace(0.95, 1.0, self.ABOVE.size)]))
        rho[b2 == 0.0] = np.linspace(1e-3, 1.0, rho.shape[1])  # rho_max = 0: nothing screened
        return mean_x, sd_x, rho * sd_x[:, None], b2

    def test_matches_unscreened_owens_t_and_phi2(self):
        mean_x, sd_x, s_mat, b2 = self._grid()
        model = _GridModel(mean_x, sd_x, s_mat)
        var_floor = model_var_floor(model)
        E, tau = _expected_misclass_matrix(mean_x, sd_x, s_mat, self.U, var_floor)
        rho = np.clip(s_mat / sd_x[:, None], 0.0, 1.0)
        a = np.sqrt((1.0 - rho) * (1.0 + rho)) / rho
        unscreened = np.clip(2.0 * owens_t(((self.U - mean_x) / sd_x)[:, None], a), 0.0, 1.0)
        below = np.zeros(E.shape, dtype=bool)
        below[:, :self.BELOW.size] = b2[:, None] != 0.0
        # below the cut: tau(x) itself, the ndtr value
        np.testing.assert_array_equal(E[below], np.broadcast_to(tau[:, None], E.shape)[below])
        # above it: the unscreened value, bit for bit
        np.testing.assert_array_equal(E[~below], unscreened[~below])
        # Below the cut, owens_t returns up to 3.4e-13 (relative) away from
        # ndtr's tau on this grid (3.4e-13 at |b2| = 37.56, 2.3e-13 for
        # |b2| <= 37, 7e-15 for |b2| <= 5); 1e-12 leaves a factor of three.
        np.testing.assert_allclose(E, unscreened, rtol=1e-12, atol=0.0)
        # Phi2 holds an absolute 1e-12 (`test_matches_bivariate_reference`)
        ref = np.array([[expected_misclass_after(model, [i], [j], self.U)
                         for j in range(E.shape[1])] for i in range(E.shape[0])])
        np.testing.assert_allclose(E, ref, rtol=0.0, atol=1e-12)

    def test_owens_t_skips_screened_pairs(self, monkeypatch):
        # a later refactor must not quietly restore the dense pass
        seen = []

        def counting(h, a):
            seen.append(h)
            return owens_t(h, a)

        monkeypatch.setattr(sur, "owens_t", counting)
        b2 = np.array([0.0, 6.0, -12.0, 25.0])
        sd_x = np.full(4, 0.8)
        s_mat = np.linspace(0.01, 1.0, 50)[None, :] * sd_x[:, None]
        _expected_misclass_matrix(self.U - b2 * sd_x, sd_x, s_mat, self.U, 1e-12)
        h = np.concatenate(seen)
        assert h.size < s_mat.size
        assert np.count_nonzero(h == 0.0) == s_mat.shape[1]  # the h = 0 row in full


def _dense_kernel(mean_x, sd_x, s_mat, u, var_floor):
    """`_expected_misclass_matrix` as one whole-matrix expression, without
    row blocks or gathering: Owen's T on every pair, then the screen and the
    guards as one mask. The form the blocked kernel must reproduce bit for bit."""
    sd_floor = np.sqrt(var_floor)
    row_ok = sd_x > sd_floor
    tau_x = np.where(row_ok, np.minimum(ndtr((mean_x - u) / np.maximum(sd_x, sd_floor)),
                                        ndtr((u - mean_x) / np.maximum(sd_x, sd_floor))), 0.0)
    sd_row = np.where(row_ok, sd_x, 1.0)
    b2 = (u - mean_x) / sd_row
    rho = np.clip(s_mat / sd_row[:, None], 0.0, 1.0)
    with np.errstate(divide="ignore"):
        a = np.sqrt((1.0 - rho) * (1.0 + rho)) / rho
    vals = np.clip(2.0 * owens_t(b2[:, None], a), 0.0, 1.0)
    s_max = _rho_max(b2) * sd_row
    kept = row_ok[:, None] & (s_mat > np.maximum(s_max * (1.0 - 1e-9), sd_floor)[:, None])
    return np.where(kept, vals, tau_x[:, None]), tau_x


_BLOCK = core._BLOCK_PAIRS
_RAGGED = (3 * (_BLOCK // 333) + 14, 333)  # three full row blocks and a short one


def _kernel_in_child(args, want):
    sys.exit(0 if _expected_misclass_matrix(*args)[0].tobytes() == want else 1)


class TestRowBlocks:
    """The pair matrix is built in row blocks on the kernel thread pool; the
    split and the thread count change no bit of it."""

    U = 0.3
    VAR_FLOOR = 1e-10  # sd floor 1e-5

    def _case(self, n_rows, n_cols):
        rng = substream(n_rows, "row-blocks")
        sd_x = rng.uniform(0.05, 2.0, n_rows)
        sd_x[::7] = 0.0  # classified rows
        sd_x[3::11] = math.sqrt(self.VAR_FLOOR)  # at the floor: classified too
        mean_x = self.U - rng.normal(0.0, 2.0, n_rows) * sd_x
        s_mat = rng.uniform(0.0, 1.0, (n_rows, n_cols)) * rng.uniform(0.05, 2.0, n_rows)[:, None]
        s_mat[rng.uniform(size=s_mat.shape) < 0.1] = 0.0  # uncorrelated pairs
        return mean_x, sd_x, s_mat, self.U, self.VAR_FLOOR

    @pytest.mark.parametrize("n_rows,n_cols", [
        (20, 30),  # one block
        _RAGGED,
        (3, _BLOCK + 7),  # wider than a block: one row per block
    ])
    def test_threads_and_blocks_change_no_bit(self, kernel_threads, n_rows, n_cols):
        args = self._case(n_rows, n_cols)
        want_E, want_tau = _dense_kernel(*args)
        assert 0.0 < np.mean(want_E == want_tau[:, None]) < 1.0  # guards hit and missed
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the block threads as often as possible
        try:
            for n in (1, 2, 5):  # 5: more threads than a small host has cores
                kernel_threads(n)
                E, tau = _expected_misclass_matrix(*args)
                assert E.tobytes() == want_E.tobytes()
                assert tau.tobytes() == want_tau.tobytes()
        finally:
            sys.setswitchinterval(switch)

    def test_block_exception_reaches_caller(self, kernel_threads, monkeypatch):
        kernel_threads(2)
        args = self._case(*_RAGGED)

        def broken(h, a):
            raise RuntimeError("owens_t failed")

        monkeypatch.setattr(sur, "owens_t", broken)
        with pytest.raises(RuntimeError, match="owens_t failed"):
            _expected_misclass_matrix(*args)
        monkeypatch.undo()
        E, _ = _expected_misclass_matrix(*args)  # the pool still works
        assert E.tobytes() == _dense_kernel(*args)[0].tobytes()

    def test_forked_child_builds_its_own_pool(self, kernel_threads):
        # a forked child inherits the pool object but none of its threads
        kernel_threads(2)
        args = self._case(*_RAGGED)
        want = _expected_misclass_matrix(*args)[0].tobytes()  # the pool exists now
        child = multiprocessing.get_context("fork").Process(
            target=_kernel_in_child, args=(args, want))
        child.start()
        child.join(60)
        hung = child.is_alive()
        if hung:
            child.kill()
        assert not hung and child.exitcode == 0

    def test_thread_count_validated(self):
        with pytest.raises(ValueError):
            core.set_kernel_threads(0)


@pytest.fixture
def no_pruning(monkeypatch):
    """Every particle with a positive score is scored and is a candidate."""
    monkeypatch.setattr(sur, "PRUNE_RHO", 1.0)
    monkeypatch.setattr(sur, "PRUNE_M0_MAX", 10 ** 9)


class TestPrune:
    def test_concentrated_mass(self):
        keep = prune(np.array([0.995, 0.003, 0.002]))
        assert list(keep) == [0]

    def test_uniform_scores_cap(self):
        assert (sur.PRUNE_RHO, sur.PRUNE_M0_MAX) == (0.99, 1000)
        keep = prune(np.full(2000, 1.0 / 2000))
        assert len(keep) == min(math.ceil(0.99 * 2000), 1000) == 1000

    def test_rho_one_keeps_all_nonzero(self, monkeypatch):
        monkeypatch.setattr(sur, "PRUNE_RHO", 1.0)
        keep = prune(np.array([0.4, 0.0, 0.3, 0.3, 0.0]))
        assert list(keep) == [0, 2, 3]

    def test_all_zero_keeps_none(self):
        # select_next_point falls back on the particle farthest from the design
        assert prune(np.zeros(4)).size == 0


def _select(model, pts, u):
    """select_next_point on a cloud with g_prev = 1, at the model's posterior."""
    mean, var = model.predict(pts)
    return select_next_point(model, pts, mean, np.sqrt(var), np.zeros(pts.shape[0]), u)


class TestSelectNextPoint:
    def test_unclassified_particle_wins(self):
        # one particle sits at the posterior-mean boundary (tau max), the other
        # is already classified: the loss can only come from the first
        model, u = _toy_model(n=8)
        pts = np.array([[0.05], [-1.9]])  # near boundary vs deep in a branch
        mu, v = model.predict(pts)
        g = coverage_g(mu, np.sqrt(v), u)
        tau = np.minimum(g, 1 - g)
        assert tau[0] > 1e-3 and tau[1] < 1e-6
        sel = _select(model, pts, u)
        assert sel.particle_index == 0

    def test_symmetric_tie_broken_by_lowest_index(self):
        # an exactly symmetric configuration: two candidates are the same
        # point duplicated (resampling copies), criterion values identical
        model, u = _toy_model(n=8)
        pts = np.array([[0.4], [0.4], [1.2]])
        sel = _select(model, pts, u)
        assert sel.particle_index in (0, 2)
        # duplicated location must never be reported under its higher index
        mirror = _select(model, pts, u)
        assert mirror.particle_index == sel.particle_index

    def test_duplicates_merge_exactly(self):
        # splitting one particle into k copies (1/k weight each) leaves the
        # criterion and the selected location unchanged
        model, u = _toy_model(n=7)
        rng = substream(3, "dups")
        base = rng.uniform(-2, 2, (6, 1))
        sel1 = _select(model, base, u)
        dup = np.vstack([base, base])  # every point duplicated, weights halved
        sel2 = _select(model, dup, u)
        np.testing.assert_allclose(sel1.x_new, sel2.x_new)
        assert sel2.criterion == pytest.approx(sel1.criterion, rel=1e-12)

    def test_relabeling_invariance(self):
        model, u = _toy_model(n=9)
        rng = substream(4, "perm")
        pts = rng.uniform(-2.4, 2.4, (30, 1))
        sel = _select(model, pts, u)
        perm = rng.permutation(30)
        sel_p = _select(model, pts[perm], u)
        np.testing.assert_allclose(sel.x_new, sel_p.x_new)

    def test_all_classified_picks_farthest_from_design(self):
        # every sd at or below the floor: every score is 0, and the pick is
        # the particle farthest from the design, not particle 0 (a design
        # point) nor the largest sd (below the floor, sds are rounding
        # noise); of the two copies of 0.3 the first wins
        model, u = _toy_model(n=8)
        pts = np.vstack([model.design_points[:1], [[0.3], [0.7], [-0.5], [0.3]]])
        mean, _ = model.predict(pts)
        sd = math.sqrt(model_var_floor(model)) * np.array([0.0, 0.5, 0.9, 0.2, 0.5])
        sel = select_next_point(model, pts, mean, sd, np.zeros(5), u)
        assert (sel.particle_index, sel.n_pruned, sel.n_candidates) == (1, 1, 1)
        np.testing.assert_array_equal(sel.x_new, pts[1])

    def test_plain_average_when_g_prev_is_one(self, no_pruning):
        # with g_prev = 1 and uniform weights the criterion is the plain
        # Monte Carlo average of the expected misclassification
        model, u = _toy_model(n=7)
        rng = substream(5, "avg")
        pts = rng.uniform(-2, 2, (12, 1))
        sel = _select(model, pts, u)
        mu, v = model.predict(pts)
        g = coverage_g(mu, np.sqrt(v), u)
        tau = np.minimum(g, 1 - g)
        keep = tau > 0
        manual = np.array([
            sum(expected_misclass_after(model, pts[j], pts[k], u) for j in range(12)) / 12
            for k in np.nonzero(keep)[0]
        ])
        want = manual.min()
        assert sel.criterion == pytest.approx(want, rel=1e-9)

    @pytest.mark.filterwarnings("ignore::UserWarning", "ignore:.*roundoff.*")
    def test_brute_force_refit_oracle(self, no_pruning):
        # exhaustive oracle: quadrature over the unknown observation with a
        # full GP refit per candidate
        from scipy.integrate import quad

        for seed in range(5):
            rng = substream(seed, "oracle")
            Xd = np.sort(rng.uniform(-2, 2, 5))[:, None]
            yd = np.sin(1.3 * Xd[:, 0]) + 0.3 * rng.standard_normal(5)
            model = GpModel(Xd, yd, CovarianceHyperparams(1.0, np.array([0.8])))
            pts = rng.uniform(-2.5, 2.5, (20, 1))
            u = 0.3
            sel = _select(model, pts, u)

            c = np.full(20, 1.0 / 20)
            floor = model_var_floor(model)
            Js = np.empty(20)
            for j in range(20):
                xj = pts[j]
                mu_j, v_j = model.predict(xj)
                sd_j = math.sqrt(v_j)

                def integrand(y_new, _xj=xj, _mu=mu_j, _sd=sd_j):
                    m2 = GpModel(np.vstack([Xd, _xj]), np.append(yd, y_new), model.hyper)
                    mu2, v2 = m2.predict(pts)
                    sd2 = np.sqrt(np.maximum(v2, 0.0))
                    g2 = np.where(v2 <= floor, (mu2 > u).astype(float),
                                  norm_cdf((mu2 - u) / np.maximum(sd2, 1e-150)))
                    tau2 = np.minimum(g2, 1 - g2)
                    dens = math.exp(-0.5 * ((y_new - _mu) / _sd) ** 2) / (_sd * math.sqrt(2 * math.pi))
                    return float(c @ tau2) * dens

                Js[j], _ = quad(integrand, mu_j - 8 * sd_j, mu_j + 8 * sd_j,
                                limit=120, epsabs=1e-11, epsrel=1e-9)
            j_min = Js.min()
            oracle_idx = int(np.argmax(Js <= j_min + 1e-12 * (1 + abs(j_min))))
            assert sel.particle_index == oracle_idx
