"""Shared test settings.

BLAS runs one thread per process unless the environment says otherwise. The
acceptance sweeps spread their work over two processes, and on two cores a
multi-threaded BLAS in each makes them slower than one serial process. These
variables must be set before numpy is first imported, which is here.

Property tests run with a fixed example sequence and no example database, so
every run checks the same cases and a failure reproduces without saved state.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile(
    "deterministic", derandomize=True, max_examples=25, deadline=None, database=None
)
settings.load_profile("deterministic")
