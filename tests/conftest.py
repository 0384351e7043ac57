"""Pin the BLAS thread pools to one thread before numpy is first imported.

On small hosts a multi-threaded OpenBLAS oversubscribes the cores in the GP
and SUR kernels and makes the acceptance study markedly slower; results are
the same either way. Values already set in the environment win.

Also defines `requires_scipy_117`, for tests that compare a result bit for bit
with `scipy.special.logsumexp`, whose formula `core.log_sum_exp` reproduces,
or with `scipy.optimize.minimize`'s L-BFGS-B loop, which `gp._lbfgsb`
reproduces, and the `kernel_threads` fixture, which sets the row-block thread
count for one test and restores the default afterwards.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from importlib.metadata import version  # noqa: E402

import pytest  # noqa: E402

requires_scipy_117 = pytest.mark.skipif(
    tuple(int(p) for p in version("scipy").split(".")[:2]) != (1, 17),
    reason="core.log_sum_exp and gp._lbfgsb reproduce scipy 1.17's logsumexp "
           "formula and L-BFGS-B loop; other scipy versions may differ",
)


@pytest.fixture
def kernel_threads():
    from failprob.core import set_kernel_threads

    yield set_kernel_threads
    set_kernel_threads(None)
