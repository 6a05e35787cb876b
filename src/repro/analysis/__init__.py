"""AST-based determinism & contract linter for the reproduction.

The paper's cross-platform comparisons are only meaningful because every
engine run is bit-reproducible, and the harness promises that a
process-pool run is byte-identical to a serial one.  Those guarantees
rest on a handful of coding conventions — no builtin ``hash()`` in
placement decisions, explicit :class:`numpy.random.Generator` threading,
no wall-clock reads inside the simulated cost paths, sorted iteration
wherever a set feeds a trace — that nothing enforced statically until
this package.  ``repro.analysis`` turns each convention into a machine
checkable rule over the stdlib :mod:`ast`, with no third-party
dependencies of its own — it lints numpy *usage* without depending on
numpy behaviour (rule L001 enforces that contract on the package
itself).

Analysis runs in two tiers.  The per-file tier (parse, local rules, and
the :mod:`~repro.analysis.flow` summary pass) is a pure function of one
file's content.  The per-project tier assembles every summary into a
:class:`~repro.analysis.graph.ProjectGraph`, runs the dataflow fixed
points (escaping generators, mutated parameters, transitive wall-clock
reach) and then the interprocedural rules — so passing an RNG to a
helper whose parameter escapes into a pool is flagged at the call site,
two modules away from the pool.

Run it as a module::

    python -m repro.analysis [--format text|json] [--baseline FILE]
                             [--stats] [--graph] [paths...]

Rules (see :mod:`repro.analysis.rules` for the full per-rule docs):

========  ===========================================================
D001      builtin ``hash()`` — use ``repro.hashing.stable_hash``
D002      global/unseeded RNG outside ``repro/stats/rng.py``
D003      wall-clock reads inside simulation/trace/cost paths
D004      iteration over a set / ``dict.keys()`` without ``sorted()``
K001      kernel sampler signature discipline (explicit ``rng``)
K002      kernel batch-twin tables (scalar/batch pairing declared)
R001      registry/factory callables must be picklable (no lambdas)
M001      mutable default arguments
C001      lock discipline: guarded fields touched without the lock
F001      RNG Generator escaping across a process/deferred boundary
L001      layer contracts: upward imports, stdlib-only analysis,
          transitive wall-clock reach in banned zones
P001      trace purity: replay functions must not mutate their inputs
S001      stale or reasonless ``# repro: allow[...]`` suppression
========  ===========================================================

Findings can be silenced inline with ``# repro: allow[RULE] <reason>``
on the offending line; a suppression that matches nothing (or carries
no reason) becomes an S001 finding, so escapes age out instead of
accumulating.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.engine import (
    AnalysisResult,
    Finding,
    lint_paths,
    lint_source,
    run_analysis,
)
from repro.analysis.profiles import Profile, profile_for
from repro.analysis.rules import ALL_RULES, PROJECT_RULES, Rule

__all__ = [
    "ALL_RULES",
    "AnalysisResult",
    "Baseline",
    "Finding",
    "PROJECT_RULES",
    "Profile",
    "Rule",
    "lint_paths",
    "lint_source",
    "profile_for",
    "run_analysis",
]
