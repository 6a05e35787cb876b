"""Command-line entry point: regenerate the paper's tables.

Usage::

    python -m repro.bench list
    python -m repro.bench figure_1a
    python -m repro.bench all
    python -m repro.bench calibration
    python -m repro.bench --coverage

Options::

    --jobs N    fan benchmark cells out over N worker processes
                (default: REPRO_BENCH_JOBS, else the CPU count);
                tables are byte-identical to a serial run
    --serial    shorthand for --jobs 1
    --out DIR   also write the results as BENCH_<rev>_figures.json
                (sorted keys, stable bytes) into DIR
"""

from __future__ import annotations

import sys
import time

from repro.bench import experiments, figure_payload, format_figure
from repro.bench.pool import CellExecutionError
from repro.bench.report import write_figures_report

FIGURES: dict[str, tuple[str, list[str]]] = {
    "figure_1a": ("Figure 1(a): GMM initial implementations",
                  ["10d/5m", "10d/20m", "10d/100m", "100d/5m"]),
    "figure_1b": ("Figure 1(b): GMM alternative implementations",
                  ["10d/5m", "10d/20m", "10d/100m", "100d/5m"]),
    "figure_1c": ("Figure 1(c): GMM super-vertex implementations (5 machines)",
                  ["10d plain", "10d sv", "100d plain", "100d sv"]),
    "figure_2": ("Figure 2: Bayesian Lasso", ["5m", "20m", "100m"]),
    "figure_3a": ("Figure 3(a): HMM word- and document-based (5 machines)",
                  ["5m"]),
    "figure_3b": ("Figure 3(b): HMM super-vertex", ["5m", "20m", "100m"]),
    "figure_4a": ("Figure 4(a): LDA word- and document-based (5 machines)",
                  ["5m"]),
    "figure_4b": ("Figure 4(b): LDA super-vertex", ["5m", "20m", "100m"]),
    "figure_5": ("Figure 5: Gaussian imputation", ["5m", "20m", "100m"]),
    "figure_6": ("Figure 6: Spark Java LDA", ["5m", "20m", "100m"]),
}


def run_one(name: str, jobs: int | None = None) -> dict:
    title, columns = FIGURES[name]
    started = time.time()
    figure = getattr(experiments, name)(jobs=jobs)
    print(format_figure(f"{title}  —  simulated [paper]", figure, columns))
    print(f"(regenerated in {time.time() - started:.0f}s; "
          f"LoC: " + ", ".join(f"{label}={cells[0].loc}"
                               for label, cells in figure.items()) + ")\n")
    return figure_payload(figure)


def run_calibration(jobs: int | None = None) -> None:
    """Run every figure and summarize simulated/paper agreement."""
    from repro.bench.paper_data import compare

    records = []
    for name in FIGURES:
        records.extend(compare(name, getattr(experiments, name)(jobs=jobs)))
    ratios = sorted(r["ratio"] for r in records if "ratio" in r)
    agree = sum(r["fail_agreement"] for r in records)
    print(f"cells compared: {len(records)}; Fail placement agreement: "
          f"{agree}/{len(records)}")
    if ratios:
        import statistics

        print(f"timed cells: {len(ratios)}; simulated/paper iteration-time "
              f"ratio: median {statistics.median(ratios):.2f}, "
              f"range [{ratios[0]:.2f}, {ratios[-1]:.2f}]")
        within = sum(1 for r in ratios if 1 / 3 <= r <= 3)
        print(f"within 3x of the paper: {within}/{len(ratios)}")
    worst = [r for r in records if not r["fail_agreement"]]
    for record in worst:
        print(f"  DISAGREES: {record['figure']} / {record['system']} "
              f"column {record['column']}")


def _parse_args(argv: list[str]) -> tuple[str | None, int | None, str | None]:
    """(target, jobs, out_dir); target None means usage error/help."""
    jobs: int | None = None
    out_dir: str | None = None
    positional: list[str] = []
    rest = list(argv)
    while rest:
        arg = rest.pop(0)
        if arg in ("-h", "--help"):
            return None, None, None
        if arg == "--serial":
            jobs = 1
        elif arg == "--coverage":
            positional.append("coverage")
        elif arg == "--jobs":
            if not rest:
                print("--jobs needs a worker count", file=sys.stderr)
                return None, None, None
            try:
                jobs = int(rest.pop(0))
            except ValueError:
                print("--jobs needs an integer", file=sys.stderr)
                return None, None, None
        elif arg == "--out":
            if not rest:
                print("--out needs a directory", file=sys.stderr)
                return None, None, None
            out_dir = rest.pop(0)
        else:
            positional.append(arg)
    if len(positional) != 1:
        return None, jobs, out_dir
    return positional[0], jobs, out_dir


def main(argv: list[str]) -> int:
    target, jobs, out_dir = _parse_args(argv)
    if target is None:
        print(__doc__)
        return 2
    if target == "list":
        for name, (title, _) in FIGURES.items():
            print(f"{name:<12} {title}")
        return 0
    if target == "coverage":
        from repro.bench.wallclock import format_coverage
        from repro.impls.registry import batch_coverage

        coverage = batch_coverage()
        print(format_coverage(coverage))
        if coverage["covered"] != coverage["total"]:
            print("FAIL: cells that fire no batch or decline site yet are not "
                  "in NO_BATCH_TWIN, or are listed there yet fire one",
                  file=sys.stderr)
            return 1
        return 0
    try:
        if target == "all":
            payloads = {name: run_one(name, jobs) for name in FIGURES}
            if out_dir is not None:
                print(f"wrote {write_figures_report(payloads, out_dir)}")
            return 0
        if target == "calibration":
            run_calibration(jobs)
            return 0
        if target not in FIGURES:
            print(f"unknown figure {target!r}; try 'list'", file=sys.stderr)
            return 2
        payload = run_one(target, jobs)
        if out_dir is not None:
            print(f"wrote {write_figures_report({target: payload}, out_dir)}")
        return 0
    except CellExecutionError as exc:
        # One line on stderr naming the failing cell; the traceback is
        # the worker's, already folded into the message's later lines.
        first_line = str(exc).splitlines()[0]
        print(f"error: {first_line}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
