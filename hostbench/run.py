"""Host-clock benchmark of the repro package.

Usage::

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is the
JSON result; see ``hostbench/harness.py`` for what a run does.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from hostbench.environment import ROOT, isolate  # noqa: E402  (stdlib only)
from hostbench.hostclock import HostClock  # noqa: E402  (stdlib only)

CLOCK = HostClock().start()
isolate()

if __name__ == "__main__":
    import signal

    # A terminated run still stops the server it started (see main's finally).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            print(f"error: no repro sources under {ROOT / 'src'}; run from a "
                  f"checkout of the repository", file=sys.stderr)
            sys.exit(2)
        from hostbench.harness import main

        status = main(sys.argv[1:], STARTED, CLOCK)
    finally:
        CLOCK.stop()  # no timer signal may outlive the run, however it ends
    sys.exit(status)
