"""Pin BLAS to one thread before any test module imports numpy.

The tests multiply small matrices, where a multi-threaded BLAS spends
more time handing work to its threads than it saves; the benchmark pins
one thread too. A value already set in the environment wins.
"""
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
