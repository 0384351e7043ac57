"""Problem definitions, the input law, and the evaluation ledger that counts
the limit-state calls of every estimator.

The input law is a product of independent normals, held as two (d,) arrays:
the means and the standard deviations.

`ss` and `bss` hold a particle cloud as three arrays, the (m, d) points and
their cached log g_t and log pdf; resampling leaves its m particles 1/m each.

Every estimator in this package works on the normalized form of a problem,
in which failure means the limit-state value exceeds the threshold
(direction ABOVE). `Problem` flips problems declared with the opposite
convention (function and threshold negated) exactly once, at construction.

Limit-state functions are vectorized: they map an (n, d) array of points to
an (n,) array of values. All densities are handled in log space so that the
machinery survives failure probabilities down to ~1e-9.

One process-wide thread pool, `kernel_threads()` threads wide, runs the
work that leaves the bits unchanged at any thread count: `_row_blocks` runs
elementwise matrix kernels in row blocks on it, and `_kernel_submit` runs
one call on it (the move kernel draws its next sweep's random numbers that
way). At one thread there is no pool and both run inline.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from concurrent.futures import wait
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
from scipy.special import ndtri

__all__ = [
    "ConfigError",
    "Direction",
    "InputDistribution",
    "Problem",
    "EvaluationLedger",
    "StageRecord",
    "EstimationResult",
    "substream",
    "log_sum_exp",
    "kernel_threads",
    "set_kernel_threads",
]

_LOG_2PI = math.log(2.0 * math.pi)


def log_sum_exp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) for a 1-D float array, bit for bit as scipy 1.17's
    `scipy.special.logsumexp(a)` computes it, without its per-call dispatch.

    The k entries equal to the maximum are factored out:
    log1p(sum of the other exp(a_i - a_max) / k) + log(k) + a_max, on
    1-element arrays; a non-finite result falls back to log(sum(exp(a))).
    """
    a_max = a.max(keepdims=True)
    at_max = a == a_max
    k = at_max.sum(keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(a - a_max)
        e[at_max] = 0.0
        s = e.sum(keepdims=True)
        s = np.where(s == 0.0, s, s / k)
        out = np.log1p(s) + np.log(k) + a_max
        if not np.isfinite(out[0]):
            out = np.log(np.exp(a).sum(keepdims=True))
    return out[0]


_BLOCK_PAIRS = 1 << 15  # entries per row block: block temporaries stay ~256 kB
_kernel_threads: int | None = None
_kernel_pool = None  # a ThreadPoolExecutor, built by the first call that needs one
_kernel_lock = threading.Lock()


def kernel_threads() -> int:
    """Threads of the kernel pool: the value given to
    `set_kernel_threads`, else the number of CPUs this process may use."""
    if _kernel_threads is not None:
        return _kernel_threads
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def set_kernel_threads(n: int | None) -> None:
    """Fix this process's kernel pool thread count (n >= 1); None restores
    the default, one thread per usable CPU."""
    global _kernel_threads, _kernel_pool
    if n is not None and n < 1:
        raise ValueError("kernel threads must be >= 1")
    with _kernel_lock:
        if _kernel_pool is not None:
            _kernel_pool.shutdown()
        _kernel_threads, _kernel_pool = None if n is None else int(n), None


def _forget_kernel_pool() -> None:
    # a forked child has no pool threads: it must build its own pool
    global _kernel_pool, _kernel_lock
    _kernel_pool, _kernel_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_kernel_pool)


def _shared_pool():
    """The process-wide kernel pool, built on first use; None when
    `kernel_threads()` is 1, so a one-thread process never starts a thread."""
    global _kernel_pool
    threads = kernel_threads()
    if threads == 1:
        return None
    with _kernel_lock:
        if _kernel_pool is None:
            # imported here: a process that never needs the pool keeps ~0.2 MB
            from concurrent.futures import ThreadPoolExecutor

            _kernel_pool = ThreadPoolExecutor(threads, thread_name_prefix="failprob-kernel")
        return _kernel_pool


def _kernel_submit(fn: Callable[[], object]):
    """A future for fn() running on the kernel pool, or None when there is
    no pool (one kernel thread): the caller then calls fn itself."""
    pool = _shared_pool()
    return None if pool is None else pool.submit(fn)


def _row_blocks(fn: Callable[[int, int], None], n_rows: int, n_cols: int) -> None:
    """Call fn(i, j) on consecutive row ranges [i, j) of an (n_rows, n_cols)
    matrix, about _BLOCK_PAIRS entries each, on `kernel_threads()` threads.

    fn writes rows i:j of its output and nothing else; it must not print.
    A single block, or a single thread, runs inline. An exception raised in a
    block re-raises here once every block has finished.
    """
    step = max(1, _BLOCK_PAIRS // max(n_cols, 1))
    bounds = [(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]
    pool = _shared_pool() if len(bounds) > 1 else None
    if pool is None:
        for i, j in bounds:
            fn(i, j)
        return
    futures = [pool.submit(fn, i, j) for i, j in bounds]
    wait(futures)
    for f in futures:
        f.result()


class ConfigError(ValueError):
    """A configuration rejected before anything runs (the command line exits 2)."""


class Direction(Enum):
    """Failure convention: ABOVE means failure when f(x) > threshold."""

    ABOVE = "above"
    BELOW = "below"


@dataclass(frozen=True, eq=False)  # compared by identity: arrays have no truth value
class InputDistribution:
    """The product law of independent normals N(mean[i], sd[i]^2): `mean` and
    `sd` are read-only (d,) float arrays, d >= 1, finite, with sd > 0."""

    mean: np.ndarray
    sd: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mean", "sd"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.mean.ndim != 1 or self.mean.shape != self.sd.shape or self.mean.size < 1:
            raise ValueError("mean and sd must be non-empty 1-D arrays of the same shape")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.sd))):
            raise ValueError("normal marginal parameters must be finite")
        if not np.all(self.sd > 0.0):
            raise ValueError("normal marginal needs sd > 0")

    def __reduce__(self):
        # through the constructor, so that an unpickled law's arrays are
        # read-only copies and checked like any other
        return (type(self), (self.mean, self.sd))

    @classmethod
    def iid_normal(cls, dim: int) -> "InputDistribution":
        """The standard normal law on R^dim."""
        return cls(np.zeros(dim), np.ones(dim))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """Draw an i.i.d. (m, d) sample, C-ordered, one column after the
        other. Deterministic given the generator state."""
        if m < 1:
            raise ValueError("sample size must be >= 1")
        out = np.empty((m, self.dim))
        for i in range(self.dim):
            out[:, i] = self.mean[i] + self.sd[i] * rng.standard_normal(m)
        return out

    def log_density(self, x):
        """Joint log density at a single point (d,) or a batch (n, d)."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("log_density requires finite input")
        batch = x.ndim == 2
        pts = np.atleast_2d(x)
        if pts.shape[1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {pts.shape[1]}")
        out = np.zeros(pts.shape[0])
        for i in range(self.dim):
            z = (pts[:, i] - self.mean[i]) / self.sd[i]
            out += -0.5 * z * z - math.log(self.sd[i]) - 0.5 * _LOG_2PI
        return out if batch else float(out[0])

    def quantile(self, p) -> np.ndarray:
        """Per-marginal quantiles at a common probability level."""
        return self.mean + self.sd * ndtri(p)


@dataclass(frozen=True)
class _NegatedFunction:
    """Picklable wrapper negating a limit-state function."""

    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return -np.asarray(self.fn(x), dtype=float)


@dataclass(frozen=True)
class Problem:
    """A rare-event problem: P(limit_state(X) > threshold) under `input`.

    `limit_state` maps an (n, d) array to an (n,) array. A problem created
    with direction BELOW is normalized at construction: the stored function
    and threshold are negated and the direction becomes ABOVE, so
    P(f < u) is estimated as P(-f > -u).
    """

    limit_state: Callable[[np.ndarray], np.ndarray]
    input: InputDistribution
    threshold: float
    direction: Direction = Direction.ABOVE

    def __post_init__(self) -> None:
        if not np.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        object.__setattr__(self, "threshold", float(self.threshold))
        if self.direction is Direction.BELOW:
            object.__setattr__(self, "limit_state", _NegatedFunction(self.limit_state))
            object.__setattr__(self, "threshold", -self.threshold)
            object.__setattr__(self, "direction", Direction.ABOVE)

    @property
    def dim(self) -> int:
        return self.input.dim


class EvaluationLedger:
    """Counts every limit-state evaluation an estimator makes, per stage.

    Stage 0 is the initial sample or design; in `bss`, stages t >= 1 hold
    the SUR evaluations, in `ss` the proposals the move scored. Conservation
    invariant: n_total == n_0 + sum over stages t >= 1 of N_t. Benchmarking
    conventions that differ from the raw call count (the subset simulation
    reporting rule) are applied by the estimators on top of these counters,
    never by double-evaluating.
    """

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}

    def evaluate(self, fn: Callable[[np.ndarray], np.ndarray], points: np.ndarray,
                 stage: int) -> np.ndarray:
        """fn at an (n, d) batch of points, counted as n evaluations at `stage`."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        values = np.asarray(fn(points), dtype=float).reshape(-1)
        if values.shape[0] != points.shape[0]:
            raise ValueError("limit_state returned wrong number of values")
        self._counts[stage] = self._counts.get(stage, 0) + points.shape[0]
        return values

    @property
    def n_total(self) -> int:
        return sum(self._counts.values())

    @property
    def n_initial(self) -> int:
        """n_0: evaluations at stage 0."""
        return self._counts.get(0, 0)


@dataclass
class StageRecord:
    """Per-stage bookkeeping: threshold, evaluation count, ratio estimate,
    and the variance-recursion terms (`smc.stage_record` builds it).

    `n_evals` is the ledger's count at stage t: the SUR evaluations in
    `bss`, the move's evaluations in `ss`. `acceptance` holds, per sweep of
    the move that follows the stage, the interval [lo, hi] of its mean
    acceptance probability; lo == hi where the move scored every proposal.
    """

    t: int
    u_t: float
    n_evals: int
    p_hat: float
    kappa_hat: float
    delta_hat: float
    acceptance: list[list[float]] = field(default_factory=list)


@dataclass
class EstimationResult:
    """Final estimate plus the stage history and the evaluation counts."""

    method: str
    alpha_hat: float
    delta_hat: float | None = None
    std_err: float | None = None
    n_total: int = 0
    n_reported: float = 0.0
    n_initial: int = 0
    n_intermediate: int = 0
    n_final: int = 0
    degenerate: bool = False
    error: str | None = None
    underflow_floors: int = 0
    stages: list[StageRecord] = field(default_factory=list)
    trace: list[dict] | None = None

    def to_dict(self) -> dict:
        """Every field but `trace`, in field order."""
        out = asdict(self)
        del out["trace"]
        return out


def _path_word(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError("integer path components must be non-negative")
        return int(part)
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(root_seed: int, *path) -> np.random.Generator:
    """Derive an independently seeded generator from a root seed and a name path.

    Streams for different paths are statistically independent; adding a new
    named consumer never perturbs the draws of existing ones. String parts
    are hashed, integer parts (run indices) are used directly.
    """
    key = tuple(_path_word(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(root_seed), spawn_key=key))
