"""Coverage/misclassification functions and the SUR acquisition rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    coverage_g,
    guarded_misclass_after,
    misclass_tau,
    norm_cdf,
    sur_pair_inputs,
)
from scipy.special import log_ndtr, ndtr, owens_t

from failprob import core, sur
from failprob.bench import _four_branch_f
from failprob.core import substream
from failprob.gp import CovarianceHyperparams, GpModel
from failprob.stats import binorm_cdf
from failprob.sur import (
    log_coverage_g,
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


def _after(model, X, u):
    """The pair kernel of `select_next_point` at the rows of X, on the
    (mean, sd, s) it takes from the GP, with each row's tau, and the guarded
    Phi2 reference on the same inputs."""
    var_floor = model_var_floor(model)
    mean, sd, s_mat = sur_pair_inputs(model, np.atleast_2d(X), var_floor)
    E, tau = _pair_kernel(mean, sd, s_mat, u, var_floor)
    ref = guarded_misclass_after(_bivariate_reference, mean, sd, s_mat, u, var_floor)
    np.testing.assert_allclose(E, ref, rtol=0.0, atol=1e-12)
    return E, tau


class TestExpectedMisclassAfter:
    """The expected misclassification at x after evaluating at x_new: entry
    [0, 1] of the pair kernel at the rows (x, x_new), checked against the
    guarded Phi2 reference by `_after`."""

    def test_self_evaluation_resolves(self):
        m, u = _toy_model()
        E, _ = _after(m, [[0.33]], u)
        assert E[0, 0] <= 1e-10

    def test_design_point_is_uninformative(self):
        m, u = _toy_model()
        x = np.array([0.33])
        (mu,), (v,) = m.predict(x[None, :])
        tau = misclass_tau(coverage_g(mu, math.sqrt(v), u))
        E, _ = _after(m, [x, m.design_points[2]], u)
        assert E[0, 1] == pytest.approx(tau, abs=1e-12)

    def test_classified_point_returns_zero(self):
        m, u = _toy_model()
        E, _ = _after(m, [m.design_points[1], [0.9]], u)
        assert E[0, 1] == 0.0

    def test_monte_carlo_oracle(self):
        m, u = _toy_model()
        x = np.array([0.33])
        x_new = np.array([0.9])
        (mu_x,), (v_x,) = m.predict(x[None, :])
        (mu_n,), (v_n,) = m.predict(x_new[None, :])
        k = m.posterior_cov(np.stack([x, x_new]))[0, 1]
        formula = _after(m, [x, x_new], u)[0][0, 1]
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
        xa, xb = rng.uniform(-2.5, 2.5, (300, 2, 1)).transpose(1, 0, 2)
        mu, v = m.predict(xa)
        tau = misclass_tau(coverage_g(mu, np.sqrt(v), u))
        E, _ = _after(m, np.vstack([xa, xb]), u)
        assert np.all(E[np.arange(300), 300 + np.arange(300)] <= tau + 1e-10)


def _bivariate_reference(mean_x, sd_x, s_mat, u):
    """Phi(b1) + Phi(b2) - 2 Phi2(b1, b2; rho) over a (point x candidate) grid."""
    num = (u - mean_x)[:, None]
    b1 = num / s_mat
    b2 = np.broadcast_to(num / sd_x[:, None], s_mat.shape)
    rho = np.clip(s_mat / sd_x[:, None], 0.0, 1.0)
    return norm_cdf(b1) + norm_cdf(b2) - 2.0 * binorm_cdf(b1, b2, rho)


def _rho_max(b2):
    """The largest rho at which an entry is tau to rounding, per row."""
    cut = 2.0 * (55.0 * math.log(2.0) - log_ndtr(-np.abs(b2)))
    return np.abs(b2) / np.sqrt(b2 * b2 + cut)


def _pair_kernel(mean_x, sd_x, s_mat, u, var_floor):
    """The pair kernel of `select_next_point` (`sur._exact_columns`) over
    every column: the matrix and each row's tau."""
    rows = sur._rows(mean_x, sd_x, u, var_floor)
    s_mat = np.asarray(s_mat, dtype=float)
    E = np.repeat(rows.tau[:, None], s_mat.shape[1], axis=1)
    sur._exact_columns(E, rows, s_mat, np.arange(s_mat.shape[1]))
    return E, rows.tau


def _expected_misclass_matrix(mean_x, sd_x, s_mat, u, var_floor):
    """The dense reference: the pair matrix as one whole-matrix expression,
    without row blocks, gathering or pruning. Owen's T runs on every pair,
    then the screen and the guards apply as one mask. The pair kernel must
    reproduce it bit for bit."""
    mean_x, sd_x, s_mat = (np.asarray(v, dtype=float) for v in (mean_x, sd_x, s_mat))
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

        E, tau = _pair_kernel(mean_x, sd_x, s_mat, self.U, self.VAR_FLOOR)
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
        E, tau = _pair_kernel(mean_x, sd_x, np.array([[lo * sd, hi * sd]]),
                              self.U, self.VAR_FLOOR)
        e_lo, e_hi = E[0]
        assert 0.0 <= e_hi and 0.0 <= e_lo
        assert e_lo <= tau[0] + 1e-15 and e_hi <= tau[0] + 1e-15
        assert e_hi <= e_lo * (1.0 + 1e-12) + np.finfo(float).tiny


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
        var_floor = sur.VAR_FLOOR_REL  # the floor of a model with sigma2 = 1 and no jitter
        E, tau = _pair_kernel(mean_x, sd_x, s_mat, self.U, var_floor)
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
        ref = guarded_misclass_after(_bivariate_reference, mean_x, sd_x, s_mat, self.U,
                                     var_floor)
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
        _pair_kernel(self.U - b2 * sd_x, sd_x, s_mat, self.U, 1e-12)
        h = np.concatenate(seen)
        assert h.size < s_mat.size
        assert np.count_nonzero(h == 0.0) == s_mat.shape[1]  # the h = 0 row in full


_BLOCK = core._BLOCK_PAIRS
_RAGGED = (3 * (_BLOCK // 333) + 14, 333)  # three full row blocks and a short one


class TestRowBlocks:
    """The pair matrix is built in row blocks on the calling thread; the
    split changes no bit of it."""

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
    def test_threads_and_blocks_change_no_bit(self, n_rows, n_cols):
        args = self._case(n_rows, n_cols)
        want_E, want_tau = _expected_misclass_matrix(*args)
        assert 0.0 < np.mean(want_E == want_tau[:, None]) < 1.0  # guards hit and missed
        E, tau = _pair_kernel(*args)
        assert E.tobytes() == want_E.tobytes()
        assert tau.tobytes() == want_tau.tobytes()

    def test_block_exception_reaches_caller(self, monkeypatch):
        args = self._case(*_RAGGED)

        def broken(h, a):
            raise RuntimeError("owens_t failed")

        monkeypatch.setattr(sur, "owens_t", broken)
        with pytest.raises(RuntimeError, match="owens_t failed"):
            _pair_kernel(*args)
        monkeypatch.undo()
        E, _ = _pair_kernel(*args)  # nothing is left half done
        assert E.tobytes() == _expected_misclass_matrix(*args)[0].tobytes()

    def test_search_same_at_any_block_split(self, monkeypatch):
        # the bound pass sums its blocks in block order, and on these cases
        # the live set and the Owen's T count do not depend on the split
        # either. The first case leaves one live column; in the second every
        # column scales the first by 0.95 to 1, so the bound pass's block
        # sums must decide among tens of close columns.
        mean_x, sd_x, s_mat, u, var_floor = self._case(*_RAGGED)
        coeff = substream(1, "row-blocks").uniform(0.5, 2.0, s_mat.shape[0])
        close = s_mat[:, :1] * substream(2, "row-blocks").uniform(0.95, 1.0, s_mat.shape)
        for s, min_live in ((s_mat, 1), (close, 10)):
            monkeypatch.setattr(core, "_BLOCK_PAIRS", _BLOCK)
            want = sur._misclass_matrix(mean_x, sd_x, s, coeff, u, var_floor)
            assert min_live <= np.count_nonzero(want[1]) < want[1].size
            for pairs in (60, _BLOCK // 4):  # pair blocks of 1 and 24 rows, not 98
                monkeypatch.setattr(core, "_BLOCK_PAIRS", pairs)
                E, live, n_owens_t = sur._misclass_matrix(mean_x, sd_x, s, coeff, u, var_floor)
                assert E.tobytes() == want[0].tobytes()
                assert live.tobytes() == want[1].tobytes() and n_owens_t == want[2]


def _pick(J):
    """select_next_point's tie rule: the first column within the tolerance."""
    j_min = float(J.min())
    return int(np.argmax(J <= j_min + sur._TIE_TOL * (1.0 + abs(j_min))))


_B2 = st.one_of(st.just(0.0), st.floats(-6.0, 6.0), st.floats(37.0, 40.0),
                st.floats(-40.0, -37.0))


@st.composite
def _sur_inputs(draw):
    """Random SUR inputs: classified rows, rows with b2 = 0 and |b2| >= 37,
    rho >= 1 (clipped), uncorrelated pairs, exactly duplicated columns and
    columns within rounding of another; n = 1 is the one-candidate fallback."""
    n = draw(st.integers(1, 30))
    b2 = np.array(draw(st.lists(_B2, min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    var_floor = 1e-10
    sd_x = rng.uniform(0.05, 2.0, n)
    mean_x = 0.3 - b2 * sd_x
    sd_x[rng.uniform(size=n) < 0.1] = 0.0  # classified
    sd_x[rng.uniform(size=n) < 0.05] = math.sqrt(var_floor)  # at the floor: classified
    rho = rng.uniform(0.0, 1.3, (n, n)) ** draw(st.floats(0.2, 4.0))
    rho[rng.uniform(size=(n, n)) < 0.1] = 0.0  # uncorrelated
    np.fill_diagonal(rho, 1.0)  # a candidate resolves its own point
    s_mat = rho * np.where(sd_x > 0.0, sd_x, 1.0)[:, None]
    for _ in range(draw(st.integers(0, n // 2))):
        j, k = rng.integers(0, n, 2)
        s_mat[:, j] = s_mat[:, k] * draw(st.sampled_from([1.0, 1.0 + 1e-13, 1.0 - 1e-13]))
    coeff = np.exp(rng.uniform(-draw(st.floats(0.0, 5.0)), 0.0, n))
    return mean_x, sd_x, s_mat, coeff, 0.3, var_floor


class TestBranchAndBound:
    """The pruned search against the dense one: coeff @ the full pair matrix."""

    @given(args=_sur_inputs())
    @settings(max_examples=300, deadline=None)
    def test_pruned_search_is_the_dense_search(self, args):
        mean_x, sd_x, s_mat, coeff, u, var_floor = args
        J_dense = coeff @ _expected_misclass_matrix(mean_x, sd_x, s_mat, u, var_floor)[0]
        want = _pick(J_dense)
        j_min = float(J_dense.min())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK_PAIRS", 60)  # several row blocks
            E, live, _ = sur._misclass_matrix(mean_x, sd_x, s_mat, coeff, u, var_floor)
        J = coeff @ E
        J[~live] = np.inf
        pick = _pick(J)
        assert pick == want and J[pick].hex() == J_dense[want].hex()
        assert np.all(J_dense[~live] > j_min + sur._TIE_TOL * (1.0 + abs(j_min)))

    def test_far_rows_take_the_trivial_bound(self, monkeypatch):
        # rows with |b2| >= 37 get no table: every Owen's T call is a pair
        # of a live column
        rng = substream(8, "far-rows")
        n = 25
        b2 = rng.choice([-1.0, 1.0], n) * rng.uniform(37.0, 40.0, n)
        sd_x = rng.uniform(0.05, 2.0, n)
        s_mat = rng.uniform(0.0, 1.0, (n, n)) * sd_x[:, None]
        args = (0.3 - b2 * sd_x, sd_x, s_mat, np.ones(n), 0.3, 1e-10)
        calls = []

        def counting(h, a):
            calls.append(np.broadcast(h, a).size)
            return owens_t(h, a)

        monkeypatch.setattr(sur, "owens_t", counting)
        E, live, n_owens_t = sur._misclass_matrix(*args)
        rows = sur._rows(*args[:2], 0.3, 1e-10)
        assert sum(calls) == n_owens_t
        assert n_owens_t == np.count_nonzero((s_mat > rows.s_min[:, None])[:, live])
        J = np.ones(n) @ E
        J[~live] = np.inf
        J_dense = np.ones(n) @ _expected_misclass_matrix(*args[:3], 0.3, 1e-10)[0]
        assert _pick(J) == _pick(J_dense)

    def test_owens_t_runs_on_few_pairs(self, monkeypatch):
        # on a SUR-bound case, the table and the live columns take far
        # fewer Owen's T pairs than the screen alone sends to it (about 25x
        # here); a later refactor must not quietly restore the dense pass
        rng = substream(0, "sur-bound")
        X = rng.normal(0.0, 2.0, (20, 2))
        y = _four_branch_f(X)
        model = GpModel(X, y, CovarianceHyperparams(float(np.var(y)), np.array([1.5, 1.5])))
        pts = rng.normal(0.0, 1.5, (1200, 2))
        mean, var = model.predict(pts)
        calls = []
        kernel_args = []

        def counting(h, a):
            calls.append(np.broadcast(h, a).size)
            return owens_t(h, a)

        def spy(*args):
            kernel_args.append(args)
            return search(*args)

        search = sur._misclass_matrix
        monkeypatch.setattr(sur, "owens_t", counting)
        monkeypatch.setattr(sur, "_misclass_matrix", spy)
        sel = select_next_point(model, pts, mean, np.sqrt(var), np.zeros(1200), 1.0)
        assert sel.n_owens_t == sum(calls)
        assert 0 < sel.n_live < sel.n_candidates
        mean_u, sd_u, s_mat, _, u, var_floor = kernel_args[0]
        calls.clear()
        _pair_kernel(mean_u, sd_u, s_mat, u, var_floor)  # the screen alone
        assert sum(calls) >= 3 * sel.n_owens_t


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
        # Monte Carlo average of the expected misclassification, here its
        # Phi2 reference on the (mean, sd, s) the search takes from the GP
        model, u = _toy_model(n=7)
        rng = substream(5, "avg")
        pts = rng.uniform(-2, 2, (12, 1))
        sel = _select(model, pts, u)
        mu, v = model.predict(pts)
        g = coverage_g(mu, np.sqrt(v), u)
        tau = np.minimum(g, 1 - g)
        var_floor = model_var_floor(model)
        ref = guarded_misclass_after(_bivariate_reference, *sur_pair_inputs(model, pts, var_floor),
                                     u, var_floor)
        want = ref.mean(axis=0)[tau > 0].min()
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
                (mu_j,), (v_j,) = model.predict(xj[None, :])
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
