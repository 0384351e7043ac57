"""Pin the BLAS thread pools to one thread before numpy is first imported.

On small hosts a multi-threaded OpenBLAS oversubscribes the cores in the GP
and SUR kernels and makes the acceptance study markedly slower; results are
the same either way. Values already set in the environment win.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
