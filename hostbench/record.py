"""Record the output digests the benchmark checks at the default seed.

Usage (from the repository root)::

    python3 hostbench/record.py

Writes ``hostbench/manifest.json``: the report digest of every figure
cell and the ``columns()`` digest of every what-if grid in one cycle, at
the default seed and benchmark sizes.  Refuses to record a figure cell
whose Fail verdict disagrees with the paper.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from hostbench.environment import isolate  # noqa: E402  (stdlib only)

isolate()

import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

from repro.service.execution import execute_spec  # noqa: E402

from hostbench.cells import check_cell, report_digest  # noqa: E402
from hostbench.figures import FigureWorkload  # noqa: E402
from hostbench.harness import DEFAULT_SEED, HERE, RUNS  # noqa: E402
from hostbench.spans import NO_SPANS  # noqa: E402
from hostbench.whatif import CYCLE, WhatIfWorkload  # noqa: E402


def main() -> int:
    manifest = {"cells": {}, "grids": {}}
    RUNS.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="record-", dir=RUNS))
    try:
        for name in ("figures-relational", "figures-dataflow-graph"):
            workload = FigureWorkload(name, DEFAULT_SEED)
            workload.digests = {}
            workload.setup(directory / name, NO_SPANS)
            for spec in workload.cells:
                result = execute_spec(spec, workload.cache)
                reason = check_cell(spec, result, {})
                if reason:
                    print(f"error: {reason}", file=sys.stderr)
                    return 1
                manifest["cells"][spec.key] = report_digest(result)
        whatif = WhatIfWorkload(DEFAULT_SEED)
        whatif.digests = {}
        whatif.strict = False
        whatif.setup(directory / "whatif", NO_SPANS)
        width = len(whatif.traces)
        for number in range(CYCLE // width):
            for offset, outcome in enumerate(whatif.run_pass(number, NO_SPANS)):
                if outcome.reason:
                    print(f"error: {outcome.reason}", file=sys.stderr)
                    return 1
                key = whatif.item_key(whatif.traces[offset], number * width + offset)
                manifest["grids"][key] = outcome.digest
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    path = HERE / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['cells'])} cell and {len(manifest['grids'])} "
          f"grid digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
