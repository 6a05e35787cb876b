#!/usr/bin/env python
"""Host fast-path microbenchmarks: ``python benchmarks/microbench.py``.

Times each model's per-iteration host cost per backend with the fast
path on vs off (``repro.bench.wallclock``) and writes ``BENCH_<rev>.json``
to the output directory.  Each case is declared as an ``ExperimentSpec``
and bound through ``repro.service.execution.bind_factory``, so the
timed factory is exactly what the figure tables and the job server
execute.  The simulated cost events are identical either way — this
measures only real wall-clock on the host.

    python benchmarks/microbench.py             # default suite
    python benchmarks/microbench.py --full      # every registered variant
    python benchmarks/microbench.py --full --check-floor  # CI speed gate
    python benchmarks/microbench.py --coverage  # batch-site coverage report
    python benchmarks/microbench.py --quick     # CI smoke (2 cases, 1 repeat)
    python benchmarks/microbench.py --jobs 4    # fan cases over 4 processes
    python benchmarks/microbench.py --compare-harness  # record serial-vs-pool
    python benchmarks/microbench.py --out /tmp  # write the JSON elsewhere
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import wallclock  # noqa: E402

DEFAULT_FLOOR_FILE = Path(__file__).resolve().parent / "speed_floor.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smoke subset with a single repeat per case")
    parser.add_argument("--full", action="store_true",
                        help="one case per registered variant (the "
                             "full-registry speed gate's suite)")
    parser.add_argument("--coverage", action="store_true",
                        help="print the computed batch-site coverage report "
                             "and exit (fails if any cell is uncovered)")
    parser.add_argument("--check-floor", action="store_true",
                        help="fail if any case falls below its per-variant "
                             "speed floor or loses events_identical")
    parser.add_argument("--floor-file", default=str(DEFAULT_FLOOR_FILE),
                        help="per-variant floor JSON "
                             "(default: benchmarks/speed_floor.json)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the harness "
                             "(default: REPRO_BENCH_JOBS, else CPU count)")
    parser.add_argument("--serial", action="store_true",
                        help="run every case in-process (same as --jobs 1)")
    parser.add_argument("--compare-harness", action="store_true",
                        help="also run the suite serially and record the "
                             "harness speedup in the JSON")
    parser.add_argument("--grid", action="store_true",
                        help="also time the vectorized scenario grid vs the "
                             "per-cell simulator and record it in the JSON")
    parser.add_argument("--out", default=".",
                        help="directory for BENCH_<rev>.json (default: cwd)")
    args = parser.parse_args(argv)
    jobs = 1 if args.serial else args.jobs

    if args.coverage:
        from repro.impls.registry import batch_coverage  # noqa: E402

        coverage = batch_coverage()
        print(wallclock.format_coverage(coverage))
        if coverage["covered"] != coverage["total"]:
            print("FAIL: cells that fire no batch or decline site yet are not "
                  "in NO_BATCH_TWIN, or are listed there yet fire one",
                  file=sys.stderr)
            return 1
        return 0

    if args.quick:
        cases = [replace(case, repeats=1) for case in wallclock.quick_cases()]
    elif args.full:
        cases = wallclock.registry_cases()
    else:
        cases = wallclock.default_cases()

    payload = wallclock.run_suite(cases, progress=print, jobs=jobs)
    if args.compare_harness:
        started = time.perf_counter()
        serial = wallclock.run_suite(cases, jobs=1)
        serial_seconds = time.perf_counter() - started
        payload["harness_comparison"] = {
            "serial_seconds": serial_seconds,
            "parallel_seconds": payload["harness_seconds"],
            "parallel_jobs": payload["jobs"],
            "speedup": (serial_seconds / payload["harness_seconds"]
                        if payload["harness_seconds"] > 0 else float("inf")),
            # Case timings are per-case best-of-N and independent of the
            # harness; this only checks the measurements themselves agree.
            "case_keys_identical": sorted(payload["cases"]) == sorted(serial["cases"]),
        }
        print(f"harness: serial {serial_seconds:.1f}s vs "
              f"{payload['jobs']} jobs {payload['harness_seconds']:.1f}s "
              f"({payload['harness_comparison']['speedup']:.2f}x)")
    if args.grid:
        from repro.bench import gridbench  # noqa: E402
        grid = (gridbench.quick_gridbench() if args.quick
                else gridbench.run_gridbench())
        payload["grid"] = grid
        print(gridbench.summarize(grid))
    path = wallclock.write_report(payload, args.out)
    print(f"wrote {path}")

    bad = [name for name, r in payload["cases"].items()
           if not r["events_identical"]]
    if bad:
        print(f"FAIL: cost events changed under the fast path: {bad}",
              file=sys.stderr)
        return 1
    if args.grid and not payload["grid"].get("identical", True):
        print("FAIL: vectorized grid diverged from the per-cell simulator",
              file=sys.stderr)
        return 1
    if args.check_floor:
        floors = json.loads(Path(args.floor_file).read_text())["floors"]
        problems = wallclock.check_floor(payload, floors)
        if problems:
            for problem in problems:
                print(f"FLOOR: {problem}", file=sys.stderr)
            return 1
        print(f"speed floor: {len(floors)} variants at or above floor")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
