"""Core types: distributions, direction normalization, particles, ledger, streams."""

import math
import pickle

import numpy as np
import pytest
from conftest import requires_scipy_117
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, ndtri

from failprob.bench import cantilever_beam, nonlinear_oscillator
from failprob.core import (
    Direction,
    EvaluationLedger,
    InputDistribution,
    Problem,
    log_sum_exp,
    substream,
)
from failprob.estimators import monte_carlo_estimate


def _linear(X):
    return X[:, 0]


class TestInputDistribution:
    def test_sampling_law_of_large_numbers(self):
        dist = InputDistribution.iid_normal(2)
        m = 100_000
        X = dist.sample(m, substream(0, "t"))
        assert X.shape == (m, 2)
        assert np.all(np.abs(X.mean(axis=0)) < 4.0 / math.sqrt(m))

    def test_sampling_deterministic_given_seed(self):
        dist = InputDistribution.iid_normal(3)
        a = dist.sample(50, substream(123, "x"))
        b = dist.sample(50, substream(123, "x"))
        np.testing.assert_array_equal(a, b)

    def test_single_sample_shape(self):
        dist = InputDistribution.iid_normal(4)
        assert dist.sample(1, substream(0, "s")).shape == (1, 4)

    def test_log_density_standard_normal_origin(self):
        dist = InputDistribution.iid_normal(2)
        assert dist.log_density(np.zeros((1, 2)))[0] == pytest.approx(-math.log(2 * math.pi),
                                                                    abs=1e-12)

    def test_log_density_at_mode(self):
        mu, sd = 1.7, 0.4
        dist = InputDistribution([mu], [sd])
        want = -math.log(sd * math.sqrt(2 * math.pi))
        assert dist.log_density(np.array([[mu]]))[0] == pytest.approx(want, abs=1e-12)

    def test_log_density_translation_invariance(self):
        rng = substream(5, "t")
        for _ in range(20):
            mu, x, c = rng.normal(size=3)
            a = InputDistribution([mu], [1.3]).log_density(np.array([[x]]))[0]
            b = InputDistribution([mu + c], [1.3]).log_density(np.array([[x + c]]))[0]
            assert a == pytest.approx(b, abs=1e-10)

    def test_log_density_rejects_non_finite(self):
        dist = InputDistribution.iid_normal(2)
        with pytest.raises(ValueError, match="finite"):
            dist.log_density(np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            dist.log_density(np.array([[np.inf, 0.0]]))

    def test_log_density_takes_a_batch_only(self):
        # a point is a 1-row batch; a (d,) vector or a wrong d names the shape
        dist = InputDistribution.iid_normal(2)
        with pytest.raises(ValueError,
                           match=r"^log_density takes an \(n, 2\) array, got shape \(2,\)$"):
            dist.log_density(np.zeros(2))
        with pytest.raises(ValueError, match=r"takes an \(n, 2\) array, got shape \(4, 3\)$"):
            dist.log_density(np.zeros((4, 3)))
        assert dist.log_density(np.zeros((1, 2))).shape == (1,)

    def test_log_density_empty_batch(self):
        # the subset simulation target asks for the density of the proposals
        # inside the level, and there may be none
        dist = InputDistribution([0.3, -1.0], [2.0, 0.5])
        out = dist.log_density(np.empty((0, 2)))
        assert isinstance(out, np.ndarray) and out.shape == (0,)
        with pytest.raises(ValueError):
            dist.log_density(np.empty((0, 3)))

    def test_marginal_normalization_by_quadrature(self):
        # each marginal density integrates to one
        dist = InputDistribution([0.7], [2.1])
        xs = np.linspace(0.7 - 12 * 2.1, 0.7 + 12 * 2.1, 20001)
        total = np.trapezoid(np.exp(dist.log_density(xs[:, None])), xs)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_invalid_marginals(self):
        for mean, sd in [([0.0], [0.0]), ([0.0, 1.0], [1.0, -2.0]), ([np.inf], [1.0]),
                         ([0.0], [np.nan]), ([0.0, 1.0], [1.0]), ([], []),
                         ([[0.0]], [[1.0]]), (0.0, 1.0)]:
            with pytest.raises(ValueError):
                InputDistribution(mean, sd)

    def test_parameters_are_read_only_copies(self):
        mean, sd = np.array([0.5, -1.0]), np.array([2.0, 0.1])
        dist = InputDistribution(mean, sd)
        mean[0], sd[0] = 9.0, 9.0
        assert dist.mean.tolist() == [0.5, -1.0] and dist.sd.tolist() == [2.0, 0.1]
        with pytest.raises(ValueError):
            dist.sd[0] = 1.0
        assert dist.mean.dtype == dist.sd.dtype == np.float64

    def test_pickle_round_trip_stays_read_only(self):
        dist = InputDistribution([0.5, -1.0], [2.0, 0.1])
        copy = pickle.loads(pickle.dumps(dist))
        for name in ("mean", "sd"):
            values = getattr(copy, name)
            assert not values.flags.writeable
            assert values.tobytes() == getattr(dist, name).tobytes()


_LOG_2PI = math.log(2.0 * math.pi)


class _NormalMarginal:
    """One N(mean, sd^2) marginal, computed as the law's per-marginal
    objects computed it: the oracle for the two-array law."""

    def __init__(self, mean: float, sd: float):
        self.mean, self.sd = float(mean), float(sd)

    def sample(self, m, rng):
        return self.mean + self.sd * rng.standard_normal(m)

    def log_pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        return -0.5 * z * z - math.log(self.sd) - 0.5 * _LOG_2PI

    def quantile(self, p):
        return self.mean + self.sd * ndtri(p)


def _oracle_sample(marginals, m, rng):
    return np.column_stack([mg.sample(m, rng) for mg in marginals])


def _oracle_log_density(marginals, pts):
    out = np.zeros(pts.shape[0])
    for i, mg in enumerate(marginals):
        out += mg.log_pdf(pts[:, i])
    return out


_LAWS = {
    "cantilever": cantilever_beam().problem.input,
    "oscillator": nonlinear_oscillator().problem.input,
    "d10": InputDistribution(np.linspace(-3.7, 250.3, 10) * np.array([1, -1] * 5),
                             np.geomspace(1e-3, 40.0, 10)[::-1]),
}


class TestAgainstPerMarginalOracle:
    """The two-array law gives the per-marginal formulas' bytes."""

    @pytest.mark.parametrize("m", [1, 7, 2000, 100_000])
    @pytest.mark.parametrize("law", sorted(_LAWS))
    def test_sample_and_log_density_bytes(self, law, m):
        dist = _LAWS[law]
        marginals = [_NormalMarginal(mu, sd) for mu, sd in zip(dist.mean, dist.sd)]
        rng, rng_ref = substream(11, law, m), substream(11, law, m)
        X = dist.sample(m, rng)
        ref = _oracle_sample(marginals, m, rng_ref)
        assert X.shape == (m, dist.dim) and X.flags.c_contiguous
        assert X.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert dist.log_density(X).tobytes() == _oracle_log_density(marginals, ref).tobytes()
        one = dist.log_density(X[:1])  # one point, as a 1-row batch
        assert one.tobytes() == _oracle_log_density(marginals, ref[:1]).tobytes()

    @pytest.mark.parametrize("law", sorted(_LAWS))
    def test_quantile_bytes(self, law):
        dist = _LAWS[law]
        marginals = [_NormalMarginal(mu, sd) for mu, sd in zip(dist.mean, dist.sd)]
        for p in (1e-5, 0.3, 0.5, 1.0 - 1e-5):
            ref = np.array([mg.quantile(p) for mg in marginals])
            assert dist.quantile(p).tobytes() == ref.tobytes()


class TestProblemNormalization:
    def test_above_unchanged(self):
        p = Problem(_linear, InputDistribution.iid_normal(1), 1.5)
        assert p.direction is Direction.ABOVE
        assert p.limit_state is _linear
        assert p.threshold == 1.5

    def test_below_flips_sign(self):
        p = Problem(_linear, InputDistribution.iid_normal(1), 0.0, Direction.BELOW)
        assert p.direction is Direction.ABOVE
        assert p.threshold == 0.0
        X = np.array([[2.0], [-3.0]])
        np.testing.assert_array_equal(p.limit_state(X), [-2.0, 3.0])

    def test_four_branch_style_threshold(self):
        p = Problem(_linear, InputDistribution.iid_normal(1), -4.0, Direction.BELOW)
        assert p.direction is Direction.ABOVE
        assert p.threshold == 4.0

    def test_both_encodings_agree_with_shared_seed(self):
        # P(f < u) estimated as P(-f > -u): same estimate, bit for bit
        below = Problem(_linear, InputDistribution.iid_normal(1), 0.3, Direction.BELOW)

        def neg(X):
            return -X[:, 0]

        above = Problem(neg, InputDistribution.iid_normal(1), -0.3, Direction.ABOVE)
        r1 = monte_carlo_estimate(below, 20_000, 99)
        r2 = monte_carlo_estimate(above, 20_000, 99)
        assert r1.alpha_hat == r2.alpha_hat

    def test_threshold_must_be_finite(self):
        with pytest.raises(ValueError):
            Problem(_linear, InputDistribution.iid_normal(1), np.inf)


class TestParticleSystem:
    """A particle cloud is plain arrays: the points and their cached values."""

    def test_cache_consistency_is_reproducible(self):
        # a cloud's cached log pdf: the batch density of a reproducible draw,
        # the same bits as the density taken one 1-row batch at a time
        dist = InputDistribution.iid_normal(3)
        pts = dist.sample(64, substream(1, "p"))
        np.testing.assert_array_equal(pts, dist.sample(64, substream(1, "p")))
        np.testing.assert_array_equal(dist.log_density(pts),
                                      [dist.log_density(x[None, :])[0] for x in pts])


class TestEvaluationLedger:
    def test_conservation(self):
        led = EvaluationLedger()
        led.evaluate(_linear, np.zeros((7, 1)), stage=0)
        led.evaluate(_linear, np.zeros((3, 1)), stage=1)
        led.evaluate(_linear, np.zeros((2, 1)), stage=2)
        led.evaluate(_linear, np.zeros((5, 1)), stage=2)
        assert led.n_initial == 7
        assert led.n_total == 7 + 3 + 7

    def test_every_call_counts_once(self):
        led = EvaluationLedger()
        calls = []

        def probe(X):
            calls.append(X.shape[0])
            return X[:, 0]

        led.evaluate(probe, np.zeros((4, 1)), 0)
        assert calls == [4] and led.n_total == 4


def _same_bits(x, y) -> bool:
    x, y = np.float64(x), np.float64(y)
    return (np.isnan(x) and np.isnan(y)) or x.tobytes() == y.tobytes()


# A few shared values make ties at the maximum common; -inf entries are zero
# weights; the floats span the log-weight range met in the threshold solve.
_LSE_ENTRY = st.one_of(
    st.sampled_from([0.0, -1.5, -700.0, 3.25, -np.inf]),
    st.floats(-800.0, 50.0, allow_nan=False, allow_infinity=False),
)


@requires_scipy_117
class TestLogSumExp:
    @given(st.lists(_LSE_ENTRY, min_size=1, max_size=60))
    @settings(max_examples=400, deadline=None)
    def test_bitwise_equal_to_scipy(self, entries):
        a = np.array(entries)
        assert _same_bits(log_sum_exp(a), logsumexp(a))

    @pytest.mark.parametrize("entries", [
        [0.3],
        [-np.inf],
        [-np.inf] * 5,
        [2.0, 2.0, 2.0],
        [1.0, -np.inf, 1.0, -3.0],
        [np.inf, 1.0],
        [np.nan, 1.0],
        [-745.2, -745.2, -800.0],
    ])
    def test_edge_cases(self, entries):
        a = np.array(entries)
        assert _same_bits(log_sum_exp(a), logsumexp(a))

    def test_threshold_sized_inputs(self):
        rng = substream(5, "lse")
        for _ in range(50):
            a = rng.normal(-5.0, 20.0, 2000)
            a[rng.integers(0, 2000, 40)] = -np.inf
            a[rng.integers(0, 2000, 3)] = a.max()
            assert _same_bits(log_sum_exp(a), logsumexp(a))


class TestSubstreams:
    def test_different_names_differ(self):
        a = substream(7, "alpha").standard_normal(8)
        b = substream(7, "beta").standard_normal(8)
        assert not np.allclose(a, b)

    def test_adding_a_consumer_never_perturbs_another(self):
        before = substream(7, "alpha").standard_normal(8)
        _ = substream(7, "gamma").standard_normal(1000)  # new module appears
        after = substream(7, "alpha").standard_normal(8)
        np.testing.assert_array_equal(before, after)

    def test_integer_path_components(self):
        a = substream(1, "runs", 3).standard_normal(4)
        b = substream(1, "runs", 4).standard_normal(4)
        assert not np.allclose(a, b)
        with pytest.raises(ValueError):
            substream(1, -2)
