"""Univariate and bivariate normal CDFs.

The bivariate CDF follows the classical Drezner-Wesolowsky approach in the
double-precision form due to Genz: Gauss-Legendre quadrature over the
correlation parameter for moderate correlations, and an asymptotic
expansion plus quadrature for |corr| >= 0.925. Absolute accuracy is around
5e-16, comfortably below the 1e-10 contract. Everything is vectorized.
`sur.expected_misclass_after` uses it as the reference that tests compare
the Owen's T form of the SUR kernel against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

__all__ = ["norm_cdf", "binorm_cdf"]

_TWOPI = 2.0 * math.pi
_CORR_TOL = 1e-12

# Gauss-Legendre nodes/weights (positive half), n = 6, 12, 20.
_GL_W6 = np.array([0.1713244923791705, 0.3607615730481384, 0.4679139345726904])
_GL_X6 = np.array([0.9324695142031522, 0.6612093864662647, 0.2386191860831970])
_GL_W12 = np.array(
    [0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
     0.2031674267230659, 0.2334925365383547, 0.2491470458134029]
)
_GL_X12 = np.array(
    [0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
     0.5873179542866171, 0.3678314989981802, 0.1252334085114692]
)
_GL_W20 = np.array(
    [0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
     0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
     0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
     0.1527533871307259]
)
_GL_X20 = np.array(
    [0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
     0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
     0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
     0.07652652113349733]
)


def norm_cdf(z):
    """Standard normal CDF; accepts +-inf, rejects NaN."""
    z = np.asarray(z, dtype=float)
    if np.any(np.isnan(z)):
        raise ValueError("norm_cdf: NaN input")
    out = ndtr(z)
    return float(out[()]) if out.ndim == 0 else out


def binorm_cdf(b1, b2, corr):
    """P(X <= b1, Y <= b2) for a standard bivariate normal with correlation corr.

    Inputs broadcast; correlations outside [-1, 1] by more than 1e-12 raise,
    values inside the tolerance band are clamped.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    corr = np.asarray(corr, dtype=float)
    if np.any(np.isnan(b1)) or np.any(np.isnan(b2)) or np.any(np.isnan(corr)):
        raise ValueError("binorm_cdf: NaN input")
    if np.any(np.abs(corr) > 1.0 + _CORR_TOL):
        raise ValueError("binorm_cdf: |corr| exceeds 1 beyond tolerance")
    scalar = b1.ndim == 0 and b2.ndim == 0 and corr.ndim == 0
    b1, b2, corr = np.broadcast_arrays(b1, b2, corr)
    r = np.clip(corr, -1.0, 1.0).ravel()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _bvnu(-b1.ravel(), -b2.ravel(), r).reshape(b1.shape)
    return float(out[()]) if scalar else out


def _bvnu(dh: np.ndarray, dk: np.ndarray, r: np.ndarray) -> np.ndarray:
    """P(X > dh, Y > dk), vectorized over flat arrays."""
    p = np.zeros_like(dh)

    upper_inf = (dh == np.inf) | (dk == np.inf)
    dh_ninf = dh == -np.inf
    dk_ninf = dk == -np.inf
    p[dh_ninf & dk_ninf] = 1.0
    only_h = dh_ninf & ~dk_ninf & ~upper_inf
    p[only_h] = ndtr(-dk[only_h])
    only_k = dk_ninf & ~dh_ninf & ~upper_inf
    p[only_k] = ndtr(-dh[only_k])

    general = ~upper_inf & ~dh_ninf & ~dk_ninf
    zero_r = general & (r == 0.0)
    if np.any(zero_r):
        p[zero_r] = ndtr(-dh[zero_r]) * ndtr(-dk[zero_r])

    work = general & (r != 0.0)
    med = work & (np.abs(r) < 0.925)
    for lo, hi, xg, wg in (
        (0.0, 0.3, _GL_X6, _GL_W6),
        (0.3, 0.75, _GL_X12, _GL_W12),
        (0.75, 0.925, _GL_X20, _GL_W20),
    ):
        sel = med & (np.abs(r) >= lo) & (np.abs(r) < hi)
        if np.any(sel):
            p[sel] = _bvnu_medium(dh[sel], dk[sel], r[sel], xg, wg)

    high = work & (np.abs(r) >= 0.925)
    if np.any(high):
        p[high] = _bvnu_high(dh[high], dk[high], r[high])

    return np.clip(p, 0.0, 1.0)


def _bvnu_medium(h, k, r, xg, wg):
    # Quadrature of the Drezner-Wesolowsky integral over [0, asin(r)].
    x_full = np.concatenate([1.0 - xg, 1.0 + xg])
    w_full = np.concatenate([wg, wg])
    hk = h * k
    hs = 0.5 * (h * h + k * k)
    asr = 0.5 * np.arcsin(r)
    sn = np.sin(asr[:, None] * x_full[None, :])
    integrand = np.exp((sn * hk[:, None] - hs[:, None]) / (1.0 - sn * sn))
    bvn = integrand @ w_full
    return bvn * asr / _TWOPI + ndtr(-h) * ndtr(-k)


def _bvnu_high(h, k, r):
    # |r| >= 0.925: expansion about |r| = 1 plus 20-point quadrature remainder.
    k = np.where(r < 0.0, -k, k)
    hk = h * k
    bvn = np.zeros_like(h)

    lt1 = np.abs(r) < 1.0
    if np.any(lt1):
        hs, ks, hks = h[lt1], k[lt1], hk[lt1]
        rs_ = r[lt1]
        as_ = (1.0 - rs_) * (1.0 + rs_)
        a = np.sqrt(as_)
        bs = (hs - ks) ** 2
        c = (4.0 - hks) / 8.0
        d = (12.0 - hks) / 80.0
        asr0 = -(bs / as_ + hks) / 2.0
        acc = np.where(
            asr0 > -100.0,
            a * np.exp(np.minimum(asr0, 0.0))
            * (1.0 - c * (bs - as_) * (1.0 - d * bs) / 3.0 + c * d * as_ * as_),
            0.0,
        )
        guard2 = hks > -100.0
        if np.any(guard2):
            b = np.sqrt(bs)
            sp = math.sqrt(_TWOPI) * ndtr(-b / a)
            term2 = np.where(
                guard2,
                np.exp(-np.where(guard2, hks, 0.0) / 2.0) * sp * b
                * (1.0 - c * bs * (1.0 - d * bs) / 3.0),
                0.0,
            )
            acc = acc - term2
        a_half = a / 2.0
        x_full = np.concatenate([1.0 - _GL_X20, 1.0 + _GL_X20])
        w_full = np.concatenate([_GL_W20, _GL_W20])
        xs = (a_half[:, None] * x_full[None, :]) ** 2
        asr1 = -(bs[:, None] / xs + hks[:, None]) / 2.0
        sp1 = 1.0 + c[:, None] * xs * (1.0 + 5.0 * d[:, None] * xs)
        rs = np.sqrt(1.0 - xs)
        ep = np.exp(-(hks[:, None] / 2.0) * xs / (1.0 + rs) ** 2) / rs
        node_terms = np.where(
            asr1 > -100.0, np.exp(np.minimum(asr1, 0.0)) * (sp1 - ep), 0.0
        )
        acc = (a_half * (node_terms @ w_full) - acc) / _TWOPI
        bvn[lt1] = acc

    pos = r > 0.0
    if np.any(pos):
        bvn[pos] += ndtr(-np.maximum(h[pos], k[pos]))
    neg = ~pos
    if np.any(neg):
        hn, kn, bn = h[neg], k[neg], bvn[neg]
        lower = np.where(hn < 0.0, ndtr(kn) - ndtr(hn), ndtr(-hn) - ndtr(-kn))
        bvn[neg] = np.where(hn >= kn, -bn, lower - bn)
    return bvn
