"""The repository's benchmark: four workloads measured from outside the program.

Run from the repository root::

    python -m bench --workload stream_many_small --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` names the workloads and metrics; ``bench/README.md``
explains them.  Every layer is measured by timing calls into its public
functions from here — nothing under ``src/`` knows this package exists.
"""

import os
import sys
from pathlib import Path

#: Repository (or checkout) root: the directory holding ``BENCHMARK.json``.
ROOT = Path(__file__).resolve().parent.parent

# One BLAS/OpenMP thread in this process and every process it spawns, so a
# 2-CPU box measures the program and not a thread pool fighting the server
# subprocess for the second core.  Must happen before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
