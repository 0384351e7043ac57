"""The quantile-truncated design box and maximin Latin hypercube designs."""

import numpy as np
import pytest

from failprob import design
from failprob.core import InputDistribution, substream
from failprob.design import maximin_lhs

# Phi^{-1}(1 - 1e-5)
_Q_1E5 = 4.264890793923841


class TestTruncatedBox:
    """`bss` draws its design in the box of the marginal quantiles
    [q_eps, q_{1-eps}], from `InputDistribution.quantile`."""

    def test_standard_normal_quantiles(self):
        dist = InputDistribution.iid_normal(3)
        np.testing.assert_allclose(dist.quantile(1e-5), -_Q_1E5, atol=1e-9)
        np.testing.assert_allclose(dist.quantile(1.0 - 1e-5), _Q_1E5, atol=1e-9)

    def test_near_half_epsilon_still_valid(self):
        dist = InputDistribution.iid_normal(1)
        eps = 0.5 - 1e-9
        assert dist.quantile(eps)[0] < dist.quantile(1.0 - eps)[0]

    def test_location_scale_equivariance(self):
        mu, sd = 2.5, 3.0
        base = InputDistribution.iid_normal(1)
        shifted = InputDistribution([mu], [sd])
        for p in (1e-4, 1.0 - 1e-4):
            assert shifted.quantile(p)[0] == pytest.approx(mu + sd * base.quantile(p)[0],
                                                           rel=1e-12)


def _unit_cube(d):
    return np.zeros(d), np.ones(d)


def _min_pairwise_dist(X):
    diff = X[:, None, :] - X[None, :, :]
    d2 = (diff ** 2).sum(axis=-1)
    iu = np.triu_indices(X.shape[0], k=1)
    return float(np.sqrt(d2[iu].min()))


class TestMaximinLhs:
    def test_two_points_one_dim_distinct_halves(self):
        X = maximin_lhs(2, *_unit_cube(1), 5, substream(0, "lhs"))
        lo = X[:, 0] < 0.5
        assert lo.sum() == 1

    def test_lhs_projection_property(self):
        # one point per axis-aligned bin in every dimension
        rng = substream(1, "lhs")
        for d, n0 in [(1, 7), (2, 10), (4, 9)]:
            X = maximin_lhs(n0, *_unit_cube(d), 50, rng)
            for j in range(d):
                bins = np.floor(X[:, j] * n0).astype(int)
                assert sorted(bins) == list(range(n0))

    def test_maximin_monotone_in_candidate_count(self):
        d1 = maximin_lhs(10, *_unit_cube(2), 1, substream(3, "lhs"))
        dq = maximin_lhs(10, *_unit_cube(2), 10_000, substream(3, "lhs"))
        assert _min_pairwise_dist(dq) >= _min_pairwise_dist(d1) - 1e-12

    def test_affine_mapping_to_box(self):
        lower, upper = np.array([-3.0, 10.0]), np.array([-1.0, 30.0])
        X = maximin_lhs(8, lower, upper, 100, substream(4, "lhs"))
        assert np.all(X >= lower) and np.all(X <= upper)
        # centers of bins: first dim bin width 0.25 of [-3,-1]
        u = (X - lower) / (upper - lower)
        np.testing.assert_allclose((u * 8) % 1.0, 0.5, atol=1e-12)

    def test_deterministic_given_seed(self):
        a = maximin_lhs(6, *_unit_cube(3), 200, substream(5, "lhs"))
        b = maximin_lhs(6, *_unit_cube(3), 200, substream(5, "lhs"))
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            maximin_lhs(1, *_unit_cube(1), 10, substream(0, "x"))
        with pytest.raises(ValueError):
            maximin_lhs(4, *_unit_cube(1), 0, substream(0, "x"))


def _float_maximin_lhs(n0: int, lower: np.ndarray, upper: np.ndarray, q_candidates: int,
                       rng: np.random.Generator, chunk: int = 512) -> np.ndarray:
    """maximin_lhs as it was before the lattice scores, verbatim: every
    candidate scored by the float criterion. The reference for the shipped one."""
    if n0 < 2:
        raise ValueError("n0 must be >= 2")
    if q_candidates < 1:
        raise ValueError("need at least one candidate design")
    d = lower.shape[0]
    best_design: np.ndarray | None = None
    best_score = -np.inf
    iu = np.triu_indices(n0, k=1)
    base = np.arange(n0, dtype=float)
    for start in range(0, q_candidates, chunk):
        nq = min(chunk, q_candidates - start)
        perms = rng.permuted(np.broadcast_to(base, (nq, d, n0)).copy(), axis=2)
        unit = (perms.transpose(0, 2, 1) + 0.5) / n0  # (nq, n0, d)
        diff = unit[:, :, None, :] - unit[:, None, :, :]
        dist2 = np.einsum("qijd,qijd->qij", diff, diff)
        scores = dist2[:, iu[0], iu[1]].min(axis=1)
        k = int(np.argmax(scores))  # first occurrence wins ties
        if scores[k] > best_score:
            best_score = float(scores[k])
            best_design = unit[k]
    assert best_design is not None
    return lower + best_design * (upper - lower)


class TestLatticeScores:
    """The lattice scores pick the design the float criterion picks, to the bit."""

    @pytest.mark.parametrize("q", [1, 511, 513, 10_000])
    @pytest.mark.parametrize("d", [1, 2, 3, 6, 8])
    def test_same_design_as_float_reference(self, d, q):
        box = np.linspace(-4.0, -1.0, d), np.linspace(2.0, 5.0, d)
        for n0 in (2, 5 * d):
            for seed in range(3):
                rng, rng_ref = substream(seed, "lhs", d, q), substream(seed, "lhs", d, q)
                X = maximin_lhs(n0, *box, q, rng)
                assert X.tobytes() == _float_maximin_lhs(n0, *box, q, rng_ref).tobytes()
                # the same draws: both generators end in the same state
                assert rng.bit_generator.state == rng_ref.bit_generator.state


class _ScriptedRng:
    """Stands in for the generator: each `permuted` call returns the next
    prescribed chunk of candidates, shaped (candidates, d, n0)."""

    def __init__(self, *chunks):
        self._chunks = list(chunks)

    def permuted(self, x, axis):
        assert axis == 2
        out = np.array(self._chunks.pop(0), dtype=float)
        assert out.shape == x.shape
        return out


class TestExactTies:
    # Two d = 2, n0 = 5 candidates (bin index per point, one row per
    # dimension) whose closest pair is at squared index distance 5 in both.
    # Rounding makes the float criterion of B one ulp-scale step above A's.
    A = [[4, 2, 1, 3, 0], [4, 0, 3, 2, 1]]
    B = [[3, 0, 1, 2, 4], [0, 1, 4, 2, 3]]

    @staticmethod
    def _design(cand):
        return (np.array(cand, dtype=float).T + 0.5) / 5

    @staticmethod
    def _pick(*chunks):
        q = sum(len(c) for c in chunks)
        got = maximin_lhs(5, *_unit_cube(2), q, _ScriptedRng(*chunks))
        ref = _float_maximin_lhs(5, *_unit_cube(2), q, _ScriptedRng(*chunks))
        assert got.tobytes() == ref.tobytes()  # the rule is the float path's
        return got

    def test_candidates_tie_exactly_on_the_lattice(self):
        def lattice(cand):
            p = np.array(cand).T
            return min(int(((p[i] - p[j]) ** 2).sum()) for i in range(5) for j in range(i))

        def float_score(cand):
            u = self._design(cand)
            diff = u[:, None, :] - u[None, :, :]
            dist2 = np.einsum("ijd,ijd->ij", diff, diff)
            return dist2[np.triu_indices(5, k=1)].min()

        assert lattice(self.A) == lattice(self.B) == 5
        assert float_score(self.A) < float_score(self.B)
        assert float_score(self.A) == pytest.approx(5 / 25, rel=1e-15)

    def test_float_criterion_breaks_a_lattice_tie(self):
        # the later candidate wins when its float criterion is larger
        for chunk in ([self.A, self.B], [self.B, self.A]):
            assert self._pick(chunk).tobytes() == self._design(self.B).tobytes()

    def test_equal_float_criterion_goes_to_the_first_drawn(self):
        # the same points in reverse order: the same float criterion
        a_rev = [row[::-1] for row in self.A]
        assert self._pick([self.A, a_rev]).tobytes() == self._design(self.A).tobytes()
        assert self._pick([a_rev, self.A]).tobytes() == self._design(a_rev).tobytes()

    def test_rule_holds_across_chunks(self):
        first = [self.A] * design._CHUNK
        assert self._pick(first, [self.B]).tobytes() == self._design(self.B).tobytes()
        b_rev = [row[::-1] for row in self.B]
        first = [self.B] * design._CHUNK
        assert self._pick(first, [b_rev]).tobytes() == self._design(self.B).tobytes()
