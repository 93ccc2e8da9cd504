"""Pin BLAS to one thread for the whole test suite.

The matrices here are at most a few dozen rows wide, and a multithreaded
OpenBLAS spends far more on thread hand-off than it saves: the suite runs
several times slower on a 2-core machine without this.  The variables are
read once, when numpy (and scipy) load their bundled OpenBLAS, so they are
set here, before any test module imports numpy.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

if "numpy" in sys.modules:
    import warnings

    warnings.warn("numpy was imported before tests/conftest.py; BLAS thread pinning has no effect", stacklevel=1)
