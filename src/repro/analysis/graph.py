"""Project-wide module, import and call graph over one lint run.

The PR-5 linter checks one module at a time, but the bugs the repository
has actually shipped — builtin ``hash()`` in shuffle bucketing, an
unseeded generator constructed behind a factory — are *flow* bugs: a
value crosses a function or module boundary and the invariant breaks on
the far side.  This module gives the rules the project view they need:

* :func:`module_name_for` maps lint paths onto dotted module names
  (``src/repro/cluster/faults.py`` -> ``repro.cluster.faults``);
* :class:`ModuleSummary` is the per-file digest every interprocedural
  rule consumes — imports with line numbers, the alias table, function
  summaries (see :mod:`repro.analysis.flow`) and class summaries
  (bases, attribute types, lock discipline);
* :class:`ProjectGraph` resolves dotted names through re-export chains
  (``repro.stats.make_rng`` -> ``repro.stats.rng.make_rng``), resolves
  calls — including method calls on locals constructed from known
  classes and on typed ``self`` attributes — and assigns every module
  to an architecture layer for the L001 contract checks.

Everything here is stdlib-``ast`` only, like the rest of the package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath

# ----------------------------------------------------------------------
# Module naming and layers
# ----------------------------------------------------------------------

#: Directories whose files are standalone scripts, not package modules.
_SCRIPT_ROOTS = ("benchmarks", "examples", "tests")


def module_name_for(path) -> str:
    """The dotted module name a lint path corresponds to.

    Resolution is purely lexical: everything after the last ``src``
    component is the package path; ``benchmarks/x.py`` style scripts get
    ``benchmarks.x`` names; anything else falls back to its stem.
    """
    parts = list(PurePosixPath(str(path).replace("\\", "/")).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        cut = len(parts) - 1 - parts[::-1].index("src")
        tail = parts[cut + 1:]
        if tail:
            return ".".join(tail)
    if "repro" in parts:
        cut = len(parts) - 1 - parts[::-1].index("repro")
        return ".".join(parts[cut:])
    for root in _SCRIPT_ROOTS:
        if root in parts:
            cut = len(parts) - 1 - parts[::-1].index(root)
            return ".".join(parts[cut:])
    return parts[-1] if parts else ""


#: Package prefix -> architecture layer (README layer diagram).  Longest
#: prefix wins, so ``repro.stats.rng`` is still ``base``.
LAYER_PACKAGES = {
    "repro": "root",
    "repro.config": "base",
    "repro.hashing": "base",
    "repro.fastpath": "base",
    "repro.stats": "base",
    "repro.workloads": "base",
    "repro.kernels": "kernels",
    "repro.dataflow": "engines",
    "repro.relational": "engines",
    "repro.graph": "engines",
    "repro.models": "models",
    "repro.cluster": "cluster",
    "repro.impls": "impls",
    "repro.bench": "bench",
    "repro.service": "service",
    "repro.analysis": "analysis",
}

#: layer -> layers it may import (the README data-flow arrows, made
#: machine-checkable).  Scripts (benchmarks/, examples/, tests/) have no
#: layer and import freely; ``root`` is the package façade.
LAYER_ALLOWED = {
    "base": {"base"},
    "kernels": {"base", "kernels"},
    "engines": {"base", "kernels", "cluster", "engines"},
    "models": {"base", "kernels", "models"},
    "cluster": {"base", "cluster"},
    "impls": {"base", "kernels", "engines", "cluster", "models", "impls"},
    # bench may import service: spec/execution are the PR-8 execution
    # chokepoint every bench module rides (the server side of service
    # imports bench right back, which is why they share a level).
    "bench": {"base", "kernels", "engines", "cluster", "models", "impls",
              "bench", "service"},
    "service": {"base", "kernels", "engines", "cluster", "models", "impls",
                "bench", "service"},
    # The linter polices the tree, so nothing in the tree may depend on
    # it — and it depends on nothing but itself (stdlib-only contract).
    "analysis": {"analysis"},
    "root": {"base", "kernels", "engines", "cluster", "models", "impls",
             "bench", "service", "root"},
}

#: Third-party packages the analysis layer must never import: the linter
#: lints numpy *usage* without depending on numpy behaviour.
ANALYSIS_FORBIDDEN_EXTERNAL = ("numpy", "scipy", "pandas")


def layer_of(module: str) -> str | None:
    """The architecture layer of a dotted module name (None: unlayered)."""
    best = None
    best_len = -1
    for prefix, layer in LAYER_PACKAGES.items():
        if module == prefix or module.startswith(prefix + "."):
            if len(prefix) > best_len:
                best, best_len = layer, len(prefix)
    return best


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CallRecord:
    """One call site, as the flow pass saw it.

    ``kind`` selects how ``callee`` resolves:

    ========== ========================================================
    name       dotted name resolved through the module's import aliases
    self       method call on ``self``; ``callee`` is the method name
    method     method call on a value of known class; ``recv_type`` is
               the (alias-resolved) dotted class name
    selfattr   method call on ``self.<recv_attr>``; the attribute type
               comes from the owning class's ``attr_types``
    ========== ========================================================
    """

    kind: str
    callee: str
    line: int
    recv_type: str = ""
    recv_attr: str = ""
    #: Receiver expression is rooted at this parameter (P001 propagation).
    recv_param: str = ""
    #: Generator-valued arguments: human-readable position labels.
    gen_args: tuple = ()
    #: Bare-parameter arguments as (position, param) pairs; position is
    #: ``"0"``/``"1"``/... or ``"kw:<name>"``.
    param_args: tuple = ()


@dataclass(frozen=True)
class FunctionSummary:
    """What the flow pass learned about one function or method."""

    name: str            #: qualified within the module: ``f`` or ``Cls.f``
    line: int
    params: tuple        #: parameter names in declaration order
    is_method: bool
    calls: tuple         #: tuple[CallRecord, ...]
    #: Direct wall-clock reads: (dotted call, line) pairs.
    wallclock: tuple = ()
    #: Parameter mutations: (param, line, kind) — ``self`` included so
    #: mutation summaries can propagate through method receivers.
    mutations: tuple = ()
    #: Attribute writes on known-class locals: (dotted class, attr, line).
    attr_writes: tuple = ()

    def positional_params(self) -> tuple:
        """Parameters as seen by a caller through a bound receiver."""
        if self.is_method and self.params and self.params[0] in ("self", "cls"):
            return self.params[1:]
        return self.params

    def param_at(self, position: str) -> str | None:
        """The parameter a caller-side argument position lands on."""
        if position.startswith("kw:"):
            name = position[3:]
            return name if name in self.params else None
        index = int(position)
        positional = self.positional_params()
        return positional[index] if index < len(positional) else None


@dataclass(frozen=True)
class ClassSummary:
    """Per-class facts: bases, attribute types, lock discipline."""

    name: str
    line: int
    bases: tuple         #: alias-resolved dotted base-class names
    #: self attribute -> alias-resolved dotted class name of its value.
    attr_types: tuple    #: ((attr, dotted), ...)
    lock_attrs: tuple    #: self attributes holding a threading lock
    #: Fields written under ``with self.<lock>`` in a non-init method.
    guarded: tuple

    def attr_type(self, attr: str) -> str | None:
        for name, dotted in self.attr_types:
            if name == attr:
                return dotted
        return None


@dataclass
class ModuleSummary:
    """Everything interprocedural rules need to know about one file."""

    module: str
    path: str
    #: Imported module targets with line numbers, as written (absolute).
    imports: tuple = ()
    #: Local name -> alias-resolved dotted name (module alias table).
    bindings: dict = field(default_factory=dict)
    #: qualified function name -> FunctionSummary.
    functions: dict = field(default_factory=dict)
    #: class name -> ClassSummary.
    classes: dict = field(default_factory=dict)


def _import_targets(tree: ast.Module) -> tuple:
    """(dotted target, line) for every import statement, absolute only.

    ``from repro import fastpath`` records ``repro.fastpath``, not
    ``repro`` — layer checks must see the module actually pulled in,
    and :meth:`ProjectGraph.project_module` trims symbol tails anyway.
    """
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                out.append((item.name, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                if item.name == "*":
                    out.append((node.module, node.lineno))
                else:
                    out.append((f"{node.module}.{item.name}", node.lineno))
    return tuple(out)


def build_module_summary(path: str, tree: ast.Module,
                         aliases: dict) -> ModuleSummary:
    """Summarize one parsed module (flow pass included)."""
    from repro.analysis.flow import summarize_classes, summarize_functions

    module = module_name_for(path)
    summary = ModuleSummary(module=module, path=path,
                            imports=_import_targets(tree),
                            bindings=dict(aliases))
    summary.classes = summarize_classes(tree, aliases)
    summary.functions = summarize_functions(tree, aliases)
    return summary


# ----------------------------------------------------------------------
# The project graph
# ----------------------------------------------------------------------

class ProjectGraph:
    """All module summaries of one lint run, with name resolution."""

    def __init__(self, summaries) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
        self.by_path = {s.path: s for s in self.modules.values()}

    # -- symbol resolution ---------------------------------------------

    def project_module(self, dotted: str) -> str | None:
        """The longest project-module prefix of ``dotted``, if any."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate
        return None

    def resolve(self, dotted: str, _seen=None):
        """Resolve a dotted name to a project definition.

        Returns ``("function", module, qualname)``,
        ``("class", module, classname)``, ``("module", name)`` or
        ``None``, following re-export chains (a package ``__init__``
        importing a symbol from a submodule) with a cycle guard.
        """
        seen = _seen if _seen is not None else set()
        if dotted in seen:
            return None
        seen.add(dotted)
        owner = self.project_module(dotted)
        if owner is None:
            return None
        rest = dotted[len(owner):].lstrip(".")
        if not rest:
            return ("module", owner)
        summary = self.modules[owner]
        parts = rest.split(".")
        head = parts[0]
        if len(parts) == 1 and head in summary.functions:
            return ("function", owner, head)
        if head in summary.classes:
            if len(parts) == 1:
                return ("class", owner, head)
            if len(parts) == 2:
                return self.resolve_method(owner, head, parts[1])
        if head in summary.bindings:
            target = ".".join([summary.bindings[head], *parts[1:]])
            return self.resolve(target, seen)
        return None

    def resolve_method(self, module: str, cls: str, method: str,
                       _seen=None):
        """Resolve ``cls.method`` through the project's base-class chain."""
        seen = _seen if _seen is not None else set()
        if (module, cls) in seen:
            return None
        seen.add((module, cls))
        summary = self.modules.get(module)
        if summary is None or cls not in summary.classes:
            return None
        qual = f"{cls}.{method}"
        if qual in summary.functions:
            return ("function", module, qual)
        for base in summary.classes[cls].bases:
            if "." not in base and base in summary.classes:
                found = self.resolve_method(module, base, method, seen)
                if found is not None:
                    return found
                continue
            resolved = self.resolve(base)
            if resolved is not None and resolved[0] == "class":
                found = self.resolve_method(resolved[1], resolved[2], method,
                                            seen)
                if found is not None:
                    return found
        return None

    def resolve_call(self, summary: ModuleSummary, fn: FunctionSummary,
                     rec: CallRecord):
        """The project function a call record targets, or ``None``.

        Class constructors resolve to their ``__init__``; a class with
        no project-visible ``__init__`` resolves to the class itself
        (enough for sink detection, useless for summaries).
        """
        if rec.kind == "name":
            target = summary.bindings.get(rec.callee.split(".", 1)[0])
            dotted = rec.callee
            if target is not None:
                rest = rec.callee.split(".", 1)
                dotted = target if len(rest) == 1 else f"{target}.{rest[1]}"
            elif "." not in rec.callee:
                # An unimported bare name is a same-module definition.
                if rec.callee in summary.functions:
                    return ("function", summary.module, rec.callee)
                if rec.callee in summary.classes:
                    init = self.resolve_method(summary.module, rec.callee,
                                               "__init__")
                    return init if init is not None else (
                        "class", summary.module, rec.callee)
            resolved = self.resolve(dotted)
            if resolved is None:
                return None
            if resolved[0] == "function":
                return resolved
            if resolved[0] == "class":
                init = self.resolve_method(resolved[1], resolved[2], "__init__")
                return init if init is not None else resolved
            return None
        if rec.kind == "self":
            if "." not in fn.name:
                return None
            own_cls = fn.name.split(".", 1)[0]
            return self.resolve_method(summary.module, own_cls, rec.callee)
        if rec.kind == "method" and rec.recv_type:
            if ("." not in rec.recv_type
                    and rec.recv_type in summary.classes):
                return self.resolve_method(summary.module, rec.recv_type,
                                           rec.callee)
            resolved = self.resolve(rec.recv_type)
            if resolved is not None and resolved[0] == "class":
                return self.resolve_method(resolved[1], resolved[2], rec.callee)
            return None
        if rec.kind == "selfattr":
            if "." not in fn.name:
                return None
            own_cls = fn.name.split(".", 1)[0]
            cls_summary = summary.classes.get(own_cls)
            if cls_summary is None:
                return None
            dotted = cls_summary.attr_type(rec.recv_attr)
            if dotted is None:
                return None
            if "." not in dotted and dotted in summary.classes:
                return self.resolve_method(summary.module, dotted, rec.callee)
            resolved = self.resolve(dotted)
            if resolved is not None and resolved[0] == "class":
                return self.resolve_method(resolved[1], resolved[2], rec.callee)
        return None

    # -- edges and statistics ------------------------------------------

    def import_edges(self):
        """(importer module, imported module, line) project-internal edges."""
        edges = []
        for summary in self.modules.values():
            seen = set()
            for target, line in summary.imports:
                owner = self.project_module(target)
                if owner is None or owner == summary.module:
                    continue
                if (owner, line) in seen:
                    continue
                seen.add((owner, line))
                edges.append((summary.module, owner, line))
        return edges

    def call_edges(self):
        """(caller fqn, callee fqn) pairs over resolvable call records."""
        edges = []
        for summary in self.modules.values():
            for qual, fn in summary.functions.items():
                caller = f"{summary.module}::{qual}"
                for rec in fn.calls:
                    resolved = self.resolve_call(summary, fn, rec)
                    if resolved is not None and resolved[0] == "function":
                        edges.append((caller, f"{resolved[1]}::{resolved[2]}"))
        return edges

    def stats(self) -> dict:
        """Graph shape + per-layer fan-in/out for the ``--graph`` output."""
        imports = self.import_edges()
        calls = self.call_edges()
        layers: dict[str, dict] = {}
        module_layers = {name: layer_of(name) or "unlayered"
                         for name in self.modules}
        for name, layer in sorted(module_layers.items()):
            layers.setdefault(layer, {"modules": 0, "fan_in": 0, "fan_out": 0})
            layers[layer]["modules"] += 1
        for importer, imported, _line in imports:
            src = module_layers[importer]
            dst = module_layers[imported]
            if src != dst:
                layers[src]["fan_out"] += 1
                layers[dst]["fan_in"] += 1
        return {
            "modules": len(self.modules),
            "functions": sum(len(s.functions) for s in self.modules.values()),
            "classes": sum(len(s.classes) for s in self.modules.values()),
            "import_edges": len(imports),
            "call_edges": len(calls),
            "layers": {k: layers[k] for k in sorted(layers)},
            "imports": sorted(dict.fromkeys(
                f"{a} -> {b}" for a, b, _ in imports)),
        }


def build_project(module_summaries) -> ProjectGraph:
    return ProjectGraph(module_summaries)


__all__ = [
    "ANALYSIS_FORBIDDEN_EXTERNAL",
    "CallRecord",
    "ClassSummary",
    "FunctionSummary",
    "LAYER_ALLOWED",
    "LAYER_PACKAGES",
    "ModuleSummary",
    "ProjectGraph",
    "build_module_summary",
    "build_project",
    "layer_of",
    "module_name_for",
]
