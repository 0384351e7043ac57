"""Normal CDF special functions against closed forms and quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import norm_cdf

from failprob.stats import binorm_cdf

# frozen high-precision value (mpmath, 40 digits)
_PHI_196 = 0.97500210485177956586


class TestNormCdf:
    def test_symmetry_at_zero(self):
        assert norm_cdf(0.0) == 0.5

    def test_limits(self):
        assert norm_cdf(np.inf) == 1.0
        assert norm_cdf(-np.inf) == 0.0

    def test_high_precision_value(self):
        assert abs(norm_cdf(1.96) - _PHI_196) <= 1e-15

    def test_monotone(self):
        z = np.linspace(-10, 10, 5001)
        assert np.all(np.diff(norm_cdf(z)) >= 0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            norm_cdf(np.nan)


def _quadrature_oracle_1d(b1, b2, rho, nodes=256):
    """Quadrature of phi(x) * Phi((b2 - rho x) / sqrt(1 - rho^2)) over [-9, b1]."""
    if rho == 1.0:
        return norm_cdf(min(b1, b2))
    if rho == -1.0:
        return max(0.0, norm_cdf(b1) + norm_cdf(b2) - 1.0)
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    lo, hi = -9.0, b1
    t = 0.5 * (hi - lo) * xs + 0.5 * (hi + lo)
    phi = np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    inner = norm_cdf((b2 - rho * t) / math.sqrt(1.0 - rho * rho))
    return 0.5 * (hi - lo) * float(np.sum(ws * phi * inner))


def _trapezoid_2d(dens, hx, hy):
    wx = np.ones(dens.shape[0])
    wx[0] = wx[-1] = 0.5
    wy = np.ones(dens.shape[1])
    wy[0] = wy[-1] = 0.5
    return float(wx @ dens @ wy) * hx * hy


def _tensor_grid_oracle(b1, b2, rho, step=0.004):
    """Brute-force tensor-grid trapezoid of the bivariate density on
    [-8,8]^2 cut at (b1, b2), with one Richardson level (steps h and 2h) to
    remove the O(h^2) boundary term, which alone is ~5e-7 at h = 0.004."""
    nx = 2 * max(1, int(round((b1 + 8.0) / step / 2)))
    ny = 2 * max(1, int(round((b2 + 8.0) / step / 2)))
    xs = np.linspace(-8.0, b1, nx + 1)
    ys = np.linspace(-8.0, b2, ny + 1)
    det = 1.0 - rho * rho
    X = xs[:, None]
    Y = ys[None, :]
    dens = np.exp(-(X * X - 2 * rho * X * Y + Y * Y) / (2 * det)) / (2 * math.pi * math.sqrt(det))
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    t_h = _trapezoid_2d(dens, hx, hy)
    t_2h = _trapezoid_2d(dens[::2, ::2], 2 * hx, 2 * hy)
    return (4.0 * t_h - t_2h) / 3.0


class TestBinormCdf:
    def test_independence_symmetry_origin(self):
        assert binorm_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_arcsine_closed_form(self):
        for rho in np.linspace(-0.999, 0.999, 41):
            want = 0.25 + math.asin(rho) / (2 * math.pi)
            assert binorm_cdf(0.0, 0.0, rho) == pytest.approx(want, abs=1e-12)

    def test_perfect_correlation(self):
        for b in (-1.3, 0.0, 0.4, 2.2):
            assert binorm_cdf(b, b, 1.0) == pytest.approx(norm_cdf(b), abs=1e-15)
        assert binorm_cdf(0.5, 1.5, 1.0) == pytest.approx(norm_cdf(0.5), abs=1e-15)

    def test_zero_correlation_product(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            b1, b2 = rng.uniform(-4, 4, 2)
            assert binorm_cdf(b1, b2, 0.0) == pytest.approx(
                norm_cdf(b1) * norm_cdf(b2), abs=1e-14
            )

    def test_corr_validation(self):
        with pytest.raises(ValueError):
            binorm_cdf(0.0, 0.0, 1.0 + 1e-9)
        # drift within tolerance is clamped
        assert binorm_cdf(0.0, 0.0, 1.0 + 1e-13) == pytest.approx(0.5, abs=1e-12)

    def test_infinite_limits(self):
        assert binorm_cdf(np.inf, 0.7, 0.3) == pytest.approx(norm_cdf(0.7), abs=1e-14)
        assert binorm_cdf(-np.inf, 0.7, 0.3) == 0.0
        assert binorm_cdf(np.inf, np.inf, -0.5) == 1.0

    def test_against_1d_reduction_quadrature(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(300):
            b1, b2 = rng.uniform(-4, 4, 2)
            rho = rng.uniform(-0.999, 0.999)
            worst = max(worst, abs(binorm_cdf(b1, b2, rho) - _quadrature_oracle_1d(b1, b2, rho)))
        assert worst <= 1e-9

    def test_against_tensor_grid_trapezoid(self):
        # brute-force 2-D quadrature oracle, step 0.004, small instance set
        rng = np.random.default_rng(5)
        for _ in range(12):
            b1, b2 = rng.uniform(-1.0, 2.0, 2)
            rho = rng.uniform(-0.85, 0.85)
            got = binorm_cdf(b1, b2, rho)
            want = _tensor_grid_oracle(b1, b2, rho)
            assert abs(got - want) <= 1e-7

    def test_partial_derivative_nonnegative(self):
        rng = np.random.default_rng(8)
        h = 1e-5
        for _ in range(100):
            b1, b2 = rng.uniform(-3, 3, 2)
            rho = rng.uniform(-0.99, 0.99)
            d = (binorm_cdf(b1 + h, b2, rho) - binorm_cdf(b1 - h, b2, rho)) / (2 * h)
            assert d >= -1e-12

    def test_symmetry_and_frechet_bounds_grid(self):
        rng = np.random.default_rng(21)
        b1 = rng.uniform(-5, 5, 1000)
        b2 = rng.uniform(-5, 5, 1000)
        rho = rng.uniform(-1, 1, 1000)
        p = binorm_cdf(b1, b2, rho)
        p_swapped = binorm_cdf(b2, b1, rho)
        np.testing.assert_allclose(p, p_swapped, atol=1e-13)
        f1, f2 = norm_cdf(b1), norm_cdf(b2)
        assert np.all(p <= np.minimum(f1, f2) + 1e-12)
        assert np.all(p >= np.maximum(0.0, f1 + f2 - 1.0) - 1e-12)

    @given(
        b1=st.floats(-6, 6),
        b2=st.floats(-6, 6),
        rho=st.floats(-1, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_property(self, b1, b2, rho):
        assert binorm_cdf(b1, b2, rho) == pytest.approx(binorm_cdf(b2, b1, rho), abs=1e-13)
