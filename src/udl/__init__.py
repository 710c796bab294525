"""udl: unit-distance lower-bound toolkit.

Builds square-grid point configurations whose unit distances come from
Gaussian-integer factorizations, enumerates those distances exactly, and
checks the counting bounds (path products, solution-count bounds, Chebyshev
sums over progressions) that tie the construction together.
"""

import os

# udl makes no BLAS call, so numpy's OpenBLAS need not start a thread per core on import
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
