"""Pin the BLAS thread pools to one thread before numpy is first imported.

On small hosts a multi-threaded OpenBLAS oversubscribes the cores in the GP
and SUR kernels and makes the acceptance study markedly slower; results are
the same either way. Values already set in the environment win.

Also defines `requires_scipy_117`, for tests that compare a result bit for bit
with `scipy.special.logsumexp`, whose formula `core.log_sum_exp` reproduces,
or with `scipy.optimize.minimize`'s L-BFGS-B loop, which `gp._lbfgsb`
reproduces; `AHEAD`, the values of `smc.DRAW_AHEAD` (on: each draw stream
draws on a thread of its own) for tests that run with the switch off and
on, which set it with `monkeypatch`; `draw_threads`, which lists the live
threads that draw streams started; and the `setulb_of_another_scipy`
fixture, which gives the ReML fit a stand-in for scipy's L-BFGS-B routine
with another argument list.
"""

import os
import threading

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from importlib.metadata import version  # noqa: E402

import pytest  # noqa: E402

requires_scipy_117 = pytest.mark.skipif(
    tuple(int(p) for p in version("scipy").split(".")[:2]) != (1, 17),
    reason="core.log_sum_exp and gp._lbfgsb reproduce scipy 1.17's logsumexp "
           "formula and L-BFGS-B loop; other scipy versions may differ",
)


# `smc.DRAW_AHEAD` off and on; each id is the number of threads a run then uses
AHEAD = [pytest.param(False, id="1"), pytest.param(True, id="2")]


def draw_threads():
    return [t for t in threading.enumerate() if t.name.startswith("failprob-draw")]


@pytest.fixture
def setulb_of_another_scipy(monkeypatch):
    # the 16 arguments of the routine before scipy 1.15: `csave`, and no
    # `maxls` or `ln_task`; gp calls it with 17, so it never runs
    from failprob import gp

    def setulb(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, csave, lsave, isave, dsave):
        raise AssertionError("a 17-argument call cannot reach this")

    monkeypatch.setattr(gp, "setulb", setulb)
