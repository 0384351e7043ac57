"""Initial space-filling design: maximin Latin hypercube on a box.

The caller gives the box as two (d,) arrays, its lower and upper corners;
`bss` takes the per-dimension quantiles [q_eps, q_{1-eps}] of the input
marginals. A Latin hypercube is drawn by permuting bin indices per
dimension with points at bin centers, and the best of Q random candidates
under the maximin criterion (largest minimum pairwise distance on the unit
cube) is affinely mapped to the box.
"""

from __future__ import annotations

import numpy as np

__all__ = ["maximin_lhs"]

_CHUNK = 512  # candidates scored per batch


def maximin_lhs(n0: int, lower: np.ndarray, upper: np.ndarray, q_candidates: int,
                rng: np.random.Generator) -> np.ndarray:
    """Best-of-Q maximin Latin hypercube, mapped to the box [lower, upper].

    Each candidate places one point at the center of each of the n0 axis
    bins per dimension (randomized by per-dimension permutations); the
    winner maximizes the minimum pairwise Euclidean distance on [0,1]^d.
    Candidates are ranked by their exact minimum squared distance between
    bin indices (an integer: n0^2 times the squared distance on the cube).
    Candidates tied there are ranked by the same criterion evaluated in
    floating point on the bin centers, whose rounding can order them either
    way; a tie that remains goes to the first candidate drawn.
    """
    if n0 < 2:
        raise ValueError("n0 must be >= 2")
    if q_candidates < 1:
        raise ValueError("need at least one candidate design")
    d = lower.shape[0]
    best_design: np.ndarray | None = None
    best_score = -np.inf
    iu = np.triu_indices(n0, k=1)
    diag = np.arange(n0)
    base = np.arange(n0, dtype=float)
    for start in range(0, q_candidates, _CHUNK):
        nq = min(_CHUNK, q_candidates - start)
        perms = rng.permuted(np.broadcast_to(base, (nq, d, n0)).copy(), axis=2)
        # Squared index distances |P_i|^2 + |P_j|^2 - 2 P_i.P_j: integers far
        # below 2^53, so every step is exact in float64.
        idx = perms.transpose(0, 2, 1)  # (nq, n0, d)
        sq = np.einsum("qid,qid->qi", idx, idx)
        lattice = idx @ (-2.0 * perms)
        lattice += sq[:, :, None]
        lattice += sq[:, None, :]
        lattice[:, diag, diag] = np.inf
        lattice_scores = lattice.min(axis=(1, 2))
        # Distinct lattice scores are >= 1/n0^2 apart on the cube, far beyond
        # the rounding of the float criterion, so its winner is among these.
        tied = np.flatnonzero(lattice_scores == lattice_scores.max())
        unit = (perms[tied].transpose(0, 2, 1) + 0.5) / n0  # (n_tied, n0, d)
        diff = unit[:, :, None, :] - unit[:, None, :, :]
        dist2 = np.einsum("qijd,qijd->qij", diff, diff)
        scores = dist2[:, iu[0], iu[1]].min(axis=1)
        k = int(np.argmax(scores))  # first occurrence wins ties
        if scores[k] > best_score:
            best_score = float(scores[k])
            best_design = unit[k]
    assert best_design is not None
    return lower + best_design * (upper - lower)
