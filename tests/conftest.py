"""Pin numpy's BLAS and OpenMP pools to one thread before numpy loads.

A multi-threaded BLAS oversubscribes a small machine as soon as anything
else is busy, and a QR-heavy test can then run tens of times slower. A
value already set in the environment is kept.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
