"""Golden bits: fixed-seed estimates that a refactor must leave unchanged.

Each entry pins `alpha_hat` to its exact double (as `float.hex()`) and the
raw evaluation count `n_total` of one seeded run; each `bss` run also pins
a digest of its SUR trace, so every pick and criterion bit is checked. A
change that alters the numerics on purpose updates these values and says
so in CHANGES.md; any other change must leave them as they are.
"""

import hashlib
import json

import pytest

from failprob import bss
from failprob.bench import CASES, _estimator, _four_branch_f
from failprob.bss import BssConfig, run_bss
from failprob.core import Direction, InputDistribution, Problem

SEED = 0

GOLDEN = {
    ("four-branch", "ss", 2000): ("0x1.8a7325dc717dbp-28", 107801),
    ("four-branch", "bss", 500): ("0x1.6919b413b5b79p-28", 53),
    ("cantilever", "ss", 2000): ("0x1.cf0d18ed36d0cp-19", 67373),
    ("cantilever", "bss", 500): ("0x1.fb0bf273b87c0p-19", 22),
    ("oscillator", "ss", 2000): ("0x1.b6162f9fde620p-27", 83417),
    ("oscillator", "bss", 500): ("0x1.99226b73d6c04p-27", 46),
}

# sha256 of each golden bss run's SUR trace: one [n, stage, u_t, x_new,
# criterion] row per selection, every float as float.hex(), in JSON
TRACE_GOLDEN = {
    "four-branch": "113230e14a670a137df5d7ce2786f97c6a53f042e08f4445a4c61c5d247be292",
    "cantilever": "7433cd44047fabc59e40a6e49ec4a6769834302f17d07ce790d591c2f95308fb",
    "oscillator": "50f7de87d7a0caada64d7a9e267689422322135ab9c7da5d3a1fc12f196c77d7",
}

# bss partial results on four-branch at m = 500, one per budget that stops
# the run: the budget (set through the bss module constant of that name, in
# upper case), then alpha_hat and delta_hat as hex, n_total and the number
# of stage records; no benchmark run takes these exits
PARTIAL_GOLDEN = {
    "max_total_evaluations": (30, "0x1.5798ee22e0618p-27", "0x1.3ad813a7fc7a5p-2", 30, 8),
    "max_stages": (2, "0x1.47ae147ad9731p-7", "0x1.33de72e53f55dp-3", 15, 2),
}

# P(four-branch < -1), about 2.4e-4: plain Monte Carlo at m = 1e5 sees
# some failures, unlike on the benchmark thresholds
MC_PROBLEM_GOLDEN = ("0x1.f75104d551d69p-13", 100_000)


@pytest.mark.filterwarnings("ignore:ReML optimizer did not converge")
@pytest.mark.parametrize("case,method,m", sorted(GOLDEN))
def test_benchmark_case_bits(case, method, m):
    res = _estimator(method, m)(CASES[case]().problem, seed=SEED)
    assert (res.alpha_hat.hex(), res.n_total) == GOLDEN[case, method, m]
    assert res.error is None and not res.degenerate
    if method == "bss":
        assert _trace_digest(res.trace) == TRACE_GOLDEN[case]


def _trace_digest(trace):
    rows = [[e["n"], e["stage"], e["u_t"].hex(), [v.hex() for v in e["x_new"]],
             e["criterion"].hex()] for e in trace]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.filterwarnings("ignore:ReML optimizer did not converge")
@pytest.mark.parametrize("budget", sorted(PARTIAL_GOLDEN))
def test_bss_partial_result_bits(monkeypatch, budget):
    limit, *want = PARTIAL_GOLDEN[budget]
    monkeypatch.setattr(bss, budget.upper(), limit)
    res = run_bss(CASES["four-branch"]().problem, BssConfig(m=500), SEED)
    assert [res.alpha_hat.hex(), res.delta_hat.hex(), res.n_total, len(res.stages)] == want
    assert res.error == f"{budget}={limit} exceeded"


def test_mc_bits():
    problem = Problem(_four_branch_f, InputDistribution.iid_normal(2), -1.0, Direction.BELOW)
    res = _estimator("mc", 100_000)(problem, seed=SEED)
    assert (res.alpha_hat.hex(), res.n_total) == MC_PROBLEM_GOLDEN
    assert res.error is None and not res.degenerate
