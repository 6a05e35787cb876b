"""Parallel cell execution: process-pool fan-out + shared workload cache.

The experiment grid is embarrassingly parallel — every benchmark cell is
one engine run against its own tracer — yet the harness historically ran
all of them serially in one process.  This module is the fan-out layer:

* :class:`WorkloadSpec` — a content-addressed description of one input
  data set, keyed on ``(generator, seed, params)``.  Identical specs
  yield identical arrays no matter which process builds them, because
  every generator draws from a fresh ``make_rng(seed)`` stream.
* :class:`WorkloadCache` — generate-once storage for specs: an
  in-process memo plus an optional pickle directory, which is how the
  parent hands generated data to pool workers (pickled handoff) and how
  figures sharing a corpus avoid regenerating it.
* :class:`CellTask` — a picklable description of one benchmark cell:
  the registry key, constructor args (literals or :class:`WorkloadRef`
  placeholders), seed, cluster size, iterations and scale map.
* :func:`run_cells` — execute tasks over a spawn-based
  ``ProcessPoolExecutor``.  ``jobs`` defaults to ``os.cpu_count()`` and
  is overridable via ``REPRO_BENCH_JOBS``; results are merged **by
  declared cell order, never completion order**, and every cell carries
  its own RNG seed, so parallel output is byte-identical to serial.
* :func:`pool_map` — the same deterministic fan-out for arbitrary
  picklable work items (wall-clock cases, fault-sweep cases).

Failures in a worker surface as :class:`CellExecutionError` naming the
failing cell, with the worker traceback inlined.  Setting
``REPRO_BENCH_ISOLATE=1`` (or ``isolate=True``) recycles the worker
process after every cell for full per-cell interpreter isolation.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import pickle
import shutil
import tempfile
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.bench.loc import count_source_lines
from repro.bench.runner import CellResult, run_benchmark
from repro.impls.registry import data_factory
from repro.stats import make_rng
from repro.workloads import (
    censor_beta_coin,
    generate_gmm_data,
    generate_lasso_data,
    generate_lda_corpus,
    newsgroup_style_corpus,
)


class CellExecutionError(RuntimeError):
    """A benchmark cell failed inside the harness (worker or parent)."""


# ----------------------------------------------------------------------
# Workload specs and the generate-once cache
# ----------------------------------------------------------------------

def _censored_gmm(rng, n: int, dim: int, clusters: int):
    """GMM points with the paper's Beta-coin censoring applied."""
    data = generate_gmm_data(rng, n, dim=dim, clusters=clusters)
    return censor_beta_coin(rng, data.points)


#: Named workload generators a :class:`WorkloadSpec` can reference.
#: Every generator takes ``(rng, **params)`` and must be deterministic
#: for a fixed stream — the cache contract depends on it.
GENERATORS: dict[str, Callable] = {
    "gmm": generate_gmm_data,
    "lasso": generate_lasso_data,
    "newsgroup": newsgroup_style_corpus,
    "lda": generate_lda_corpus,
    "censored-gmm": _censored_gmm,
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Content-addressed description of one generated data set."""

    generator: str
    seed: int
    params: tuple[tuple[str, object], ...]

    @classmethod
    def make(cls, generator: str, seed: int, **params) -> "WorkloadSpec":
        return cls(generator, seed, tuple(sorted(params.items())))

    @property
    def key(self) -> str:
        """Stable content address: generator name + digest of seed/params."""
        text = f"{self.generator}:{self.seed}:{self.params!r}"
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        return f"{self.generator}-{digest}"

    def build(self):
        """Generate the workload from a fresh seeded stream."""
        try:
            generator = GENERATORS[self.generator]
        except KeyError:
            known = ", ".join(sorted(GENERATORS))
            raise KeyError(
                f"unknown workload generator {self.generator!r}; "
                f"known generators: {known}") from None
        return generator(make_rng(self.seed), **dict(self.params))


@dataclass(frozen=True)
class WorkloadRef:
    """Placeholder in a :class:`CellTask` arg list: ``spec`` (or one of
    its attributes, e.g. ``points``/``documents``) resolved through the
    cache at execution time."""

    spec: WorkloadSpec
    attr: str = ""


class WorkloadCache:
    """Generate-once workload storage, shareable across processes.

    Lookups hit the in-process memo, then the pickle directory (if
    configured), and only then the generator.  Disk writes are atomic
    (tmp + rename) and content-addressed, so concurrent writers of the
    same spec are benign: both produce identical bytes.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self._memory: dict[str, object] = {}
        self._directory = Path(directory) if directory is not None else None
        self._tempdir: str | None = None

    @property
    def directory(self) -> Path | None:
        return self._directory

    def ensure_directory(self) -> Path:
        """The pickle directory, creating a self-cleaning temp one if unset."""
        if self._directory is None:
            self._tempdir = tempfile.mkdtemp(prefix="repro-bench-cache-")
            self._directory = Path(self._tempdir)
            atexit.register(shutil.rmtree, self._tempdir, ignore_errors=True)
        self._directory.mkdir(parents=True, exist_ok=True)
        return self._directory

    def _path(self, spec: WorkloadSpec) -> Path | None:
        if self._directory is None:
            return None
        return self._directory / f"{spec.key}.pkl"

    def get(self, spec: WorkloadSpec):
        """The workload for ``spec``: memoized, loaded, or generated.

        A corrupted or truncated disk pickle (a worker killed mid-write,
        a stale partial file) is never fatal: the workload is
        regenerated from the spec — generators are pure functions of the
        seed — and the entry rewritten, with a warning naming the file.
        """
        cached = self._memory.get(spec.key)
        if cached is not None:
            return cached
        data = None
        path = self._path(spec)
        if path is not None and path.exists():
            try:
                with path.open("rb") as handle:
                    data = pickle.load(handle)
            except Exception as exc:
                warnings.warn(
                    f"workload cache entry {path.name} is unreadable "
                    f"({type(exc).__name__}: {exc}); regenerating from spec",
                    RuntimeWarning, stacklevel=2)
                data = None
        if data is None:
            data = spec.build()
            if path is not None:
                self._write(path, data)
        self._memory[spec.key] = data
        return data

    def _write(self, path: Path, data) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        with tmp.open("wb") as handle:
            pickle.dump(data, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)

    def warm(self, specs: Iterable[WorkloadSpec]) -> int:
        """Generate (and persist, if a directory is set) each unique spec
        once.  Returns the number of distinct specs warmed.

        Unlike :meth:`get`, a memo hit still writes the disk pickle:
        warming is what hands workloads to pool workers, and a spec
        memoized before the directory existed would otherwise make every
        worker regenerate it from the spec.
        """
        seen = set()
        for spec in specs:
            if spec.key in seen:
                continue
            seen.add(spec.key)
            data = self.get(spec)
            path = self._path(spec)
            if path is not None and not path.exists():
                self._write(path, data)
        return len(seen)

    def resolve(self, value):
        """Replace a :class:`WorkloadRef` with its data; pass anything
        else through untouched."""
        if isinstance(value, WorkloadRef):
            data = self.get(value.spec)
            return getattr(data, value.attr) if value.attr else data
        return value


_default_cache: WorkloadCache | None = None


def default_cache() -> WorkloadCache:
    """The process-wide cache (``REPRO_BENCH_CACHE`` names its directory).

    Module-level on purpose: every figure run in one process shares it,
    so a corpus used by four figures is generated exactly once per sweep.
    """
    global _default_cache
    if _default_cache is None:
        _default_cache = WorkloadCache(os.environ.get("REPRO_BENCH_CACHE") or None)
    return _default_cache


# ----------------------------------------------------------------------
# Cell tasks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CellTask:
    """One benchmark cell, described declaratively so it can cross a
    process boundary: registry key + args + seed + cluster + scales."""

    label: str
    platform: str
    model: str
    variant: str
    #: Constructor data args: literals or :class:`WorkloadRef` entries.
    args: tuple
    seed: int
    machines: int
    iterations: int
    #: ``paper_scales`` output as sorted items (kept hashable).
    scales: tuple[tuple[str, float], ...]
    paper: str = ""
    kwargs: tuple = field(default=())

    def describe(self) -> str:
        return (f"{self.label!r} ({self.platform}/{self.model}/{self.variant} "
                f"@ {self.machines} machines, seed {self.seed})")

    def workload_specs(self) -> list[WorkloadSpec]:
        return [arg.spec for arg in self.args if isinstance(arg, WorkloadRef)]


def run_cell(task: CellTask, cache: WorkloadCache | None = None) -> CellResult:
    """Execute one cell in this process (the serial path and the worker
    body are the same function, which is what makes them byte-identical)."""
    cache = cache if cache is not None else default_cache()
    args = [cache.resolve(arg) for arg in task.args]
    factory = data_factory(task.platform, task.model, task.variant, *args,
                           seed=task.seed, **dict(task.kwargs))
    report = run_benchmark(factory, task.machines, task.iterations,
                           dict(task.scales))
    return CellResult(label=task.label, machines=task.machines, report=report,
                      paper=task.paper, loc=count_source_lines(factory.cls))


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------

def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit argument, else ``REPRO_BENCH_JOBS``, else
    ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get("REPRO_BENCH_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_BENCH_JOBS must be an integer, got {env!r}") from None
        else:
            jobs = os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def isolate_enabled(isolate: bool | None = None) -> bool:
    if isolate is not None:
        return isolate
    return os.environ.get("REPRO_BENCH_ISOLATE", "").strip() in ("1", "true", "yes")


# Worker-side cache instances, keyed by directory so a reused worker
# keeps its memo across cells of the same sweep.
_worker_caches: dict[str, WorkloadCache] = {}


def _worker_cache(cache_dir: str | None) -> WorkloadCache:
    key = cache_dir or ""
    cache = _worker_caches.get(key)
    if cache is None:
        cache = WorkloadCache(cache_dir)
        _worker_caches[key] = cache
    return cache


def _execute_cell(task: CellTask, cache_dir: str | None) -> CellResult:
    """Pool worker body: run one cell, wrapping any failure in a
    :class:`CellExecutionError` that names the cell (plain-string
    payload, so it survives the pickle trip back to the parent)."""
    try:
        return run_cell(task, _worker_cache(cache_dir))
    except Exception as exc:
        raise CellExecutionError(
            f"benchmark cell {task.describe()} failed in worker: "
            f"{type(exc).__name__}: {exc}\n--- worker traceback ---\n"
            f"{traceback.format_exc()}") from None


def _pool(jobs: int, tasks: int, isolate: bool) -> ProcessPoolExecutor:
    # Spawn (not fork): workers import a clean interpreter, matching how
    # a cell would run standalone; required for max_tasks_per_child.
    context = multiprocessing.get_context("spawn")
    return ProcessPoolExecutor(
        max_workers=min(jobs, tasks),
        mp_context=context,
        max_tasks_per_child=1 if isolate else None,
    )


def run_cells(
    tasks: Iterable[CellTask],
    jobs: int | None = None,
    isolate: bool | None = None,
    cache: WorkloadCache | None = None,
) -> list[CellResult]:
    """Execute cells, fanning out over a process pool when ``jobs > 1``.

    Results are returned in declared task order regardless of completion
    order.  Before fan-out the parent warms the workload cache — every
    unique ``(generator, seed, params)`` is generated exactly once and
    handed to workers as a pickle file — so N workers never regenerate
    the same corpus N times.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    cache = cache if cache is not None else default_cache()
    if jobs <= 1 or len(tasks) <= 1:
        return [run_cell(task, cache) for task in tasks]
    # Directory first: warm() only persists pickles once a directory
    # exists, and the workers load exactly those files.
    cache_dir = str(cache.ensure_directory())
    cache.warm(spec for task in tasks for spec in task.workload_specs())
    with _pool(jobs, len(tasks), isolate_enabled(isolate)) as pool:
        futures = [pool.submit(_execute_cell, task, cache_dir) for task in tasks]
        results: list[CellResult] = []
        for task, future in zip(tasks, futures):
            results.append(_collect(task.describe(), future))
    return results


def _collect(description: str, future):
    """Unwrap one future, naming the cell on every failure path."""
    try:
        return future.result()
    except CellExecutionError:
        raise
    except BrokenProcessPool as exc:
        raise CellExecutionError(
            f"worker process died while {description} was in flight "
            f"(or an earlier cell crashed the pool): {exc}") from exc
    except Exception as exc:
        raise CellExecutionError(
            f"benchmark cell {description} failed: "
            f"{type(exc).__name__}: {exc}") from exc


def pool_map(
    fn: Callable,
    items: list,
    jobs: int | None = None,
    isolate: bool | None = None,
    describe: Callable[[object], str] = repr,
) -> list:
    """Deterministically map a picklable, module-level ``fn`` over
    ``items`` with the same jobs/env semantics as :func:`run_cells`.

    Used by the wall-clock and fault-sweep harnesses, whose work items
    are whole cases rather than figure cells.  Results come back in item
    order; any unpicklable item falls the whole call back to serial (a
    locally-defined test case must still work).
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    try:
        pickle.dumps(items)
    except Exception:
        return [fn(item) for item in items]
    with _pool(jobs, len(items), isolate_enabled(isolate)) as pool:
        futures = [pool.submit(fn, item) for item in items]
        return [_collect(describe(item), future)
                for item, future in zip(items, futures)]


__all__ = [
    "GENERATORS",
    "CellExecutionError",
    "CellTask",
    "WorkloadCache",
    "WorkloadRef",
    "WorkloadSpec",
    "default_cache",
    "isolate_enabled",
    "pool_map",
    "resolve_jobs",
    "run_cell",
    "run_cells",
]
