"""Rare-event failure probability estimation.

Plain Monte Carlo, subset simulation with adaptive thresholds, and Bayesian
subset simulation (Gaussian-process-driven sequential design fused with a
sequential Monte Carlo sampler), plus the benchmark problems and the
experiment harness used to study them.
"""

__version__ = "0.1.0"

from .core import (
    Direction,
    EstimationResult,
    EvaluationLedger,
    InputDistribution,
    Problem,
    StageRecord,
    substream,
)

__all__ = [
    "__version__",
    "Direction",
    "EstimationResult",
    "EvaluationLedger",
    "InputDistribution",
    "Problem",
    "StageRecord",
    "substream",
]
