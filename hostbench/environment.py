"""Process set-up shared by the benchmark's scripts and tests.

Standard library only: :func:`isolate` must run before numpy loads.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def isolate() -> None:
    """One BLAS/OpenMP thread per process, no ``REPRO_*`` setting for the
    program (a server child inherits both), and the repro sources on
    ``sys.path``."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
