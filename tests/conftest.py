"""Pins BLAS to one thread for the whole test run.

Small-matrix numpy here is sensitive to the BLAS thread count. pytest
loads this file before any test module imports numpy, and worker
processes spawned by tests inherit the environment.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
