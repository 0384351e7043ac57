"""Golden bits: fixed-seed estimates that a refactor must leave unchanged.

Each entry pins `alpha_hat` to its exact double (as `float.hex()`) and the
raw evaluation count `n_total` of one seeded run. A change that alters the
numerics on purpose updates these values and says so in CHANGES.md; any
other change must leave them as they are.
"""

import pytest

from failprob import bss
from failprob.bench import CASES, _four_branch_f, run_estimator
from failprob.bss import BssConfig, run_bss
from failprob.core import Direction, InputDistribution, Problem

SEED = 0

GOLDEN = {
    ("four-branch", "ss", 2000): ("0x1.8a7325dc717c7p-28", 162000),
    ("four-branch", "bss", 500): ("0x1.6919b2a605786p-28", 53),
    ("cantilever", "ss", 2000): ("0x1.cf0d18ed36cfbp-19", 102000),
    ("cantilever", "bss", 500): ("0x1.f85cbf2eb86b3p-19", 22),
    ("oscillator", "ss", 2000): ("0x1.b6162f9fde600p-27", 142000),
    ("oscillator", "bss", 500): ("0x1.16279ed28e79cp-26", 49),
}

# bss partial results on four-branch at m = 500, one per budget that stops
# the run: the budget (set through the bss module constant of that name, in
# upper case), then alpha_hat and delta_hat as hex, n_total and the number
# of stage records; no benchmark run takes these exits
PARTIAL_GOLDEN = {
    "max_total_evaluations": (30, "0x1.5798ee22d7650p-27", "0x1.3ad8136e7ba7ap-2", 30, 8),
    "max_stages": (2, "0x1.47ae147ad9d26p-7", "0x1.33de7335e77cdp-3", 15, 2),
}

# P(four-branch < -1), about 2.4e-4: plain Monte Carlo at m = 1e5 sees
# some failures, unlike on the benchmark thresholds
MC_PROBLEM_GOLDEN = ("0x1.f75104d551d69p-13", 100_000)


@pytest.mark.filterwarnings("ignore:ReML optimizer did not converge")
@pytest.mark.parametrize("case,method,m", sorted(GOLDEN))
def test_benchmark_case_bits(case, method, m):
    res = run_estimator(CASES[case]().problem, method, m, SEED)
    assert (res.alpha_hat.hex(), res.n_total) == GOLDEN[case, method, m]
    assert res.error is None and not res.degenerate


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
    res = run_estimator(problem, "mc", 100_000, SEED)
    assert (res.alpha_hat.hex(), res.n_total) == MC_PROBLEM_GOLDEN
    assert res.error is None and not res.degenerate
