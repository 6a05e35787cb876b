"""Rule engine: parse, resolve names, run every applicable rule.

The engine owns everything rules share — the parsed tree, the import
alias table (so ``np.random.default_rng`` is recognised however numpy
was imported), and the set of names bound anywhere in the module (so a
locally shadowed ``hash`` is not reported as the builtin).  Each rule
walks the tree independently; at this repository's size a handful of
extra walks per file is far cheaper than the bookkeeping of a fused
visitor, and it keeps every rule readable in isolation.

Since the interprocedural growth, a full run has two tiers:

1. **Per file**: parse, local rules, and the flow pass that produces
   the module summary.
2. **Per project**: assemble every summary into a
   :class:`~repro.analysis.graph.ProjectGraph`, run the dataflow fixed
   points, then the :data:`~repro.analysis.rules.PROJECT_RULES`
   (F001/C001/L001/P001).  Project findings pass through the same
   per-file profile filter as local ones.

Inline suppressions (``# repro: allow[RULE] reason``) are applied after
the two tiers merge; a suppression that matches nothing becomes an S001
finding, so they age out exactly like stale baseline entries.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.profiles import Profile, profile_for


@dataclass(frozen=True)
class Finding:
    """One rule violation, pointing at a file:line."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str

    @property
    def key(self) -> str:
        """The baseline identity of this finding (line-scoped)."""
        return f"{self.path}:{self.line}:{self.rule}"

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"{self.message}\n    hint: {self.hint}")

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


class ModuleContext:
    """Everything the rules need to know about one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module,
                 profile: Profile) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.profile = profile
        self.aliases = _import_aliases(tree)
        self.bound_names = _bound_names(tree)

    def resolve(self, node: ast.AST) -> str | None:
        """The fully-qualified dotted name of an expression, if statically
        resolvable through this module's imports.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        whether numpy was imported as ``np``, as ``numpy``, or the
        function was imported directly (``from numpy.random import
        default_rng``).  Returns ``None`` for anything dynamic.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head, rest = parts[0], parts[1:]
        expansion = self.aliases.get(head)
        if expansion is not None:
            return ".".join([expansion, *rest])
        # An unimported bare name resolves to itself only when it is not
        # rebound somewhere in the module (e.g. the ``hash`` builtin).
        if not rest and head not in self.bound_names:
            return head
        return None


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> fully qualified module/object it refers to."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".", 1)[0]
                target = item.name if item.asname else item.name.split(".", 1)[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def _bound_names(tree: ast.Module) -> set[str]:
    """Every name bound anywhere in the module (assignments including
    walrus, defs, function parameters, imports, loop/comprehension/with
    targets, except-handler names)."""
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                            *(a for a in (args.vararg, args.kwarg) if a)):
                    bound.add(arg.arg)
        elif isinstance(node, ast.Lambda):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        *(a for a in (args.vararg, args.kwarg) if a)):
                bound.add(arg.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for item in node.names:
                bound.add((item.asname or item.name).split(".", 1)[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
    return bound


def lint_source(path: str, source: str,
                profile: Profile | None = None) -> list[Finding]:
    """Lint one file's source text; ``path`` picks the profile."""
    from repro.analysis.rules import ALL_RULES

    profile = profile if profile is not None else profile_for(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(rule="E000", path=path, line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1,
                        message=f"file does not parse: {exc.msg}",
                        hint="fix the syntax error; nothing else was checked")]
    ctx = ModuleContext(path, source, tree, profile)
    findings: list[Finding] = []
    for rule in ALL_RULES:
        if rule.id in profile.rules:
            findings.extend(rule.check(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def iter_python_files(paths) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[Path] = []
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            out.extend(p for p in sorted(root.rglob("*.py"))
                       if "__pycache__" not in p.parts)
        elif root.suffix == ".py":
            out.append(root)
        elif not root.exists():
            raise FileNotFoundError(f"no such file or directory: {entry}")
    return out


# ----------------------------------------------------------------------
# Inline suppressions
# ----------------------------------------------------------------------

_SUPPRESSION_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z]\d{3})\]\s*(.*)$")


def find_suppressions(source: str) -> dict:
    """line number -> (rule id, reason) for ``# repro: allow[...]``.

    Tokenized, not regex-over-lines: a string literal that happens to
    contain the marker (a rule hint, a test fixture) is not a
    suppression.  Unparseable tails are ignored — E000 owns those.
    """
    out: dict = {}
    import io
    import tokenize

    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION_RE.search(token.string)
            if match is not None:
                out[token.start[0]] = (match.group(1), match.group(2).strip())
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return out


def apply_suppressions(findings: list, suppressions: dict,
                       path: str) -> tuple:
    """(kept findings, suppressions used): drop suppressed findings and
    turn unused/invalid suppressions into S001 findings.  S001 itself
    cannot be suppressed."""
    used: set = set()
    kept: list = []
    for finding in findings:
        entry = suppressions.get(finding.line)
        if (entry is not None and entry[0] == finding.rule and entry[1]
                and finding.rule != "S001"):
            used.add(finding.line)
            continue
        kept.append(finding)
    for line, (rule, reason) in sorted(suppressions.items()):
        if line in used:
            continue
        if not reason:
            kept.append(Finding(
                rule="S001", path=path, line=line, col=0,
                message=f"suppression allow[{rule}] has no reason",
                hint="write '# repro: allow[RULE] <why this is sound>'"))
        else:
            kept.append(Finding(
                rule="S001", path=path, line=line, col=0,
                message=f"stale suppression: no {rule} finding on this line",
                hint="the violation is gone (or the line moved) — delete "
                "the allow[] comment"))
    return kept, len(used)


# ----------------------------------------------------------------------
# Project orchestration
# ----------------------------------------------------------------------

@dataclass
class ProjectContext:
    """The assembled graph plus the dataflow fixed points rules consume."""

    graph: object
    escaping: dict = field(default_factory=dict)
    mutating: dict = field(default_factory=dict)
    clock_reach: dict = field(default_factory=dict)

    def resolve_call(self, summary, fn, rec):
        """(callee module, callee qualname, callee summary) or None."""
        resolved = self.graph.resolve_call(summary, fn, rec)
        if resolved is not None and resolved[0] == "function":
            callee = self.graph.modules[resolved[1]].functions.get(resolved[2])
            if callee is not None:
                return resolved[1], resolved[2], callee
        return None


@dataclass
class AnalysisResult:
    """One full run: merged findings plus run-shape counters."""

    findings: list
    files_scanned: int
    suppressions_used: int = 0
    project: ProjectContext | None = None


def build_project_context(summaries) -> ProjectContext:
    from repro.analysis.flow import (
        escaping_params,
        mutating_params,
        wallclock_reach,
    )
    from repro.analysis.graph import build_project
    from repro.analysis.profiles import wallclock_exempt

    graph = build_project(summaries)
    return ProjectContext(
        graph=graph,
        escaping=escaping_params(graph),
        mutating=mutating_params(graph),
        clock_reach=wallclock_reach(graph, wallclock_exempt))


def run_analysis(paths) -> AnalysisResult:
    """The full two-tier analysis over files and directories."""
    from repro.analysis.graph import build_module_summary
    from repro.analysis.rules import PROJECT_RULES

    files = iter_python_files(paths)
    sources: dict = {}
    local_findings: dict = {}
    summaries: list = []
    for file in files:
        path = file.as_posix()
        source = file.read_text()
        sources[path] = source
        findings = lint_source(path, source, profile_for(path))
        local_findings[path] = findings
        if not any(f.rule == "E000" for f in findings):
            tree = ast.parse(source, filename=path)
            summaries.append(
                build_module_summary(path, tree, _import_aliases(tree)))

    project = build_project_context(summaries)
    analyzed = set(local_findings)
    for rule in PROJECT_RULES:
        for finding in rule.check_project(project):
            if (finding.path in analyzed
                    and finding.rule in profile_for(finding.path).rules):
                local_findings[finding.path].append(finding)

    merged: list = []
    suppressions_used = 0
    for path, findings in local_findings.items():
        suppressions = find_suppressions(sources[path])
        findings, used = apply_suppressions(findings, suppressions, path)
        suppressions_used += used
        merged.extend(findings)
    merged.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return AnalysisResult(findings=merged, files_scanned=len(files),
                          suppressions_used=suppressions_used,
                          project=project)


def lint_paths(paths) -> tuple[list[Finding], int]:
    """Lint files/directories.  Returns (findings, files_scanned).

    Runs the full two-tier analysis (local + project rules +
    suppressions); the richer counters live on :func:`run_analysis`.
    """
    result = run_analysis(paths)
    return result.findings, result.files_scanned


__all__ = ["AnalysisResult", "Finding", "ModuleContext", "ProjectContext",
           "apply_suppressions", "build_project_context",
           "find_suppressions", "iter_python_files", "lint_paths",
           "lint_source", "run_analysis"]
