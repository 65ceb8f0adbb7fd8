"""Test-session setup: BLAS runs on one thread unless the environment says
otherwise.

OpenBLAS factors the Bunch-Kaufman blocks of the lattice LDL^T (``dsytrf``)
more slowly on two threads than on one: criterion 8's fixture took 36.1 s
against 25.7 s on a 2-core box.  The benchmark pins one thread as well.
BLAS reads its thread count once, when numpy loads it, so the count is set
here, before any test module imports numpy; a value already in the
environment is kept.
"""

import os
import sys
import warnings

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py, so its BLAS "
                  "thread count is not pinned to 1", stacklevel=1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
