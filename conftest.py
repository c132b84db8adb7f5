"""Root pytest configuration, loaded before any test module imports numpy.

The suite's dense kernels are small; on a machine with few cores a threaded
OpenBLAS spends more time synchronizing than computing on them, so tests run
single-threaded unless the caller already chose a thread count.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
