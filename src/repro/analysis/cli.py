"""Command-line front end: ``python -m repro.analysis``.

Exit codes: 0 clean (or fully baselined), 1 at least one non-baselined
finding (or a stale baseline entry), 2 usage error.  The linter itself
imports nothing outside the stdlib — it lints numpy *usage* without
depending on numpy behaviour, so it can never be skewed by the
libraries it polices.

Default paths and the default baseline file can be set in
``pyproject.toml``::

    [tool.repro-analysis]
    paths = ["src", "benchmarks", "examples"]
    baseline = "lint-baseline.json"
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.engine import run_analysis
from repro.analysis.rules import ALL_RULES, PROJECT_RULES


def _load_pyproject_defaults(start: Path) -> dict:
    """``[tool.repro-analysis]`` from the nearest pyproject.toml, if any."""
    try:
        import tomllib
    except ImportError:  # pragma: no cover - python < 3.11
        return {}
    for directory in (start, *start.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            try:
                data = tomllib.loads(candidate.read_text())
            except tomllib.TOMLDecodeError:
                return {}
            return data.get("tool", {}).get("repro-analysis", {})
    return {}


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
        return out or "dev"
    except Exception:
        return "dev"


def _unique_rules():
    """Local + project rules, one entry per id (C001 has two halves)."""
    out = []
    for rule in (*ALL_RULES, *PROJECT_RULES):
        if rule.id not in {r.id for r in out}:
            out.append(rule)
    return out


def _stats_payload(findings, suppressed, stale, result, paths) -> dict:
    by_rule = Counter(f.rule for f in findings)
    return {
        "rev": _git_revision(),
        "kind": "lint",
        "paths": [str(p) for p in paths],
        "files_scanned": result.files_scanned,
        "findings": len(findings),
        "suppressed_by_baseline": len(suppressed),
        "suppressed_inline": result.suppressions_used,
        "stale_baseline_entries": len(stale),
        "by_rule": {rule_id: by_rule.get(rule_id, 0)
                    for rule_id in
                    (rule.id for rule in _unique_rules())},
    }


def _print_rules() -> None:
    for rule in _unique_rules():
        print(f"{rule.id}  {rule.title}")
        print(f"      fix: {rule.hint}")
        for line in rule.doc.split(". "):
            if line.strip():
                print(f"      {line.strip().rstrip('.')}.")
        print()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST determinism & contract linter for the reproduction.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: the "
                             "[tool.repro-analysis] paths in pyproject.toml)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="finding output format (default: text)")
    parser.add_argument("--baseline", metavar="FILE",
                        help="JSON baseline of grandfathered findings; "
                             "suppresses exactly its entries")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="write every current finding to FILE as a "
                             "baseline (justifications start as TODO) and "
                             "exit 0")
    parser.add_argument("--stats", action="store_true",
                        help="print per-rule finding counts and files scanned")
    parser.add_argument("--out", metavar="DIR",
                        help="also write the --stats payload to "
                             "DIR/BENCH_<rev>_lint.json")
    parser.add_argument("--rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--graph", action="store_true",
                        help="include the import/call graph and per-layer "
                             "fan-in/out statistics in --stats / --out "
                             "output")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.rules:
        _print_rules()
        return 0

    defaults = _load_pyproject_defaults(Path.cwd())
    paths = args.paths or defaults.get("paths", [])
    if not paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given and no [tool.repro-analysis] paths "
              "configured", file=sys.stderr)
        return 2
    baseline_path = args.baseline or defaults.get("baseline")

    try:
        result = run_analysis(paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings, files_scanned = result.findings, result.files_scanned

    if args.write_baseline:
        Baseline.from_findings(findings).save(args.write_baseline)
        print(f"wrote {len(findings)} finding(s) to {args.write_baseline}; "
              "replace every TODO justification before committing")
        return 0

    suppressed, stale = [], []
    if baseline_path and Path(baseline_path).is_file():
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        findings, suppressed, stale = baseline.split(findings)
    elif args.baseline:  # explicitly requested but missing
        print(f"error: baseline file not found: {args.baseline}",
              file=sys.stderr)
        return 2

    stats = _stats_payload(findings, suppressed, stale, result, paths)
    if args.graph and result.project is not None:
        stats["graph"] = result.project.graph.stats()

    if args.format == "json":
        payload = {**stats, "items": [f.as_dict() for f in findings],
                   "stale_keys": stale}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
        for key in stale:
            print(f"stale baseline entry: {key} (finding no longer exists; "
                  "delete it from the baseline)")
        if args.stats:
            print(f"\nscanned {files_scanned} file(s) under "
                  f"{', '.join(str(p) for p in paths)}")
            if args.graph and "graph" in stats:
                shape = stats["graph"]
                print(f"  graph: {shape['modules']} modules, "
                      f"{shape['functions']} functions, "
                      f"{shape['import_edges']} import edges, "
                      f"{shape['call_edges']} call edges")
                for layer, row in shape["layers"].items():
                    print(f"    {layer:10s} {row['modules']:3d} modules  "
                          f"fan-in {row['fan_in']:3d}  "
                          f"fan-out {row['fan_out']:3d}")
            for rule in _unique_rules():
                print(f"  {rule.id}: {stats['by_rule'][rule.id]:3d}  {rule.title}")
            if suppressed:
                print(f"  {len(suppressed)} finding(s) suppressed by baseline")
        if not findings and not stale:
            print(f"clean: {files_scanned} file(s), 0 findings"
                  + (f" ({len(suppressed)} baselined)" if suppressed else ""))

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / f"BENCH_{stats['rev']}_lint.json"
        out_path.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
        print(f"stats written to {out_path}", file=sys.stderr)

    return 1 if (findings or stale) else 0


__all__ = ["build_parser", "main"]
