"""The ``service-mixed`` workload: one closed-loop client against the server.

Set-up starts ``python -m repro.service serve`` as a child process on a
fresh result store and warms it with one job per input corpus.  Each
pass is one round:

* one cold spec, a cheap figure cell with a fresh seed (a store miss);
* on some rounds the same spec again while it is still in flight, which
  the scheduler must coalesce onto the running job;
* four resubmissions of earlier specs in other JSON spellings (camelCase
  and reordered keys, ``11.0`` for ``11``), which the store must answer.

Checks: a cold job must finish DONE and uncached; every cached reply must
be DONE, cached, and carry the cold reply's result byte for byte; and at
the end the store's misses and entries must equal the number of distinct
cold specs, so no duplicate ever ran twice.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import socket
import subprocess
import sys
import time
import urllib.parse
from dataclasses import replace
from pathlib import Path

from repro.bench.pool import WorkloadRef
from repro.hashing import stable_digest
from repro.service.client import ServiceClient, ServiceError
from repro.stats import derive_seed, make_rng

from hostbench.cells import benchmark_cells
from hostbench.harness import ROOT, Outcome, Workload
from hostbench.spans import Spans, percentile

#: The cold cells, as (platform, model, variant) at 5 machines.
KINDS = (
    ("giraph", "lasso", "super-vertex"),
    ("graphlab", "lasso", "super-vertex"),
    ("spark", "hmm", "document"),
    ("giraph", "hmm", "document"),
    ("spark", "lda", "document"),
    ("giraph", "lda", "document"),
    ("giraph", "hmm", "super-vertex"),
    ("graphlab", "hmm", "super-vertex"),
    ("giraph", "lda", "super-vertex"),
    ("graphlab", "lda", "super-vertex"),
)
SIZES = {"bench": KINDS, "tiny": KINDS[1:3]}
CACHED_PER_ROUND = 4
#: Rounds ``r`` with ``r % DUPLICATE_EVERY == 1`` resubmit their cold spec
#: in flight, when it is an HMM or LDA cell: those run long enough
#: (>= 0.1 s) that the duplicate always lands before the job finishes.
DUPLICATE_EVERY = 4
BOOT_TIMEOUT = 60.0


def _stoppable_by_sigint() -> None:
    """Run in the server child before it starts: the server stops on
    SIGINT, but a Python process that starts with SIGINT ignored, as a
    background job's children do, leaves it ignored."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class OneConnectionClient(ServiceClient):
    """:class:`ServiceClient` over one persistent HTTP/1.1 connection.

    The server writes a reply's headers and body in two sends with Nagle's
    algorithm on, so the body waits until the headers are acknowledged.
    A stock client's fresh connection acknowledges at once; a kept-alive
    one would delay the ACK by ~40 ms, which would then be most of every
    request.  So the client asks for an immediate ACK before each reply.
    """

    def __init__(self, url: str) -> None:
        super().__init__(url)
        parts = urllib.parse.urlsplit(self.url)
        self._connection = http.client.HTTPConnection(parts.hostname, parts.port,
                                                      timeout=BOOT_TIMEOUT)
        self.gets = 0

    def _request(self, path: str, body: dict | None = None) -> dict:
        headers = {"Accept": "application/json"}
        data = None
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        self._connection.request("GET" if data is None else "POST", path,
                                 body=data, headers=headers)
        self._connection.sock.setsockopt(socket.IPPROTO_TCP,
                                         socket.TCP_QUICKACK, 1)
        response = self._connection.getresponse()
        payload = json.loads(response.read().decode())
        if response.status >= 400:
            raise ServiceError(response.status, payload.get("error", ""))
        return payload

    def job(self, job_id: str) -> dict:
        self.gets += 1
        return super().job(job_id)

    def close(self) -> None:
        self._connection.close()


def _camel(key: str) -> str:
    head, *rest = key.split("_")
    return head + "".join(word.title() for word in rest)


def spelling(payload, variant: int):
    """Another JSON spelling of a spec payload.

    0: camelCase field names, every object's keys reversed;
    1: every integral number written as a float;
    2: both.  Workload parameter names are data, not fields, and keep
    their spelling.
    """
    def walk(value, params=False):
        if isinstance(value, dict):
            items = [(k if params or variant == 1 else _camel(k),
                      walk(v, params=(k == "params")))
                     for k, v in value.items()]
            if variant != 1:
                items.reverse()
            return dict(items)
        if isinstance(value, list):
            return [walk(v) for v in value]
        if isinstance(value, int) and not isinstance(value, bool) and variant:
            return float(value)
        return value
    return walk(payload)


def result_bytes(job: dict) -> bytes:
    return json.dumps(job["result"], sort_keys=True).encode()


class ServiceWorkload(Workload):
    name = "service-mixed"
    pass_seconds = 0.19
    #: The traced run's untraced part needs >= 100 cold jobs for a p90.
    traced_passes = 100

    def __init__(self, seed: int, size: str = "bench") -> None:
        self.seed = seed
        platforms = tuple(sorted({kind[0] for kind in KINDS}))
        cells = {(s.platform, s.model, s.variant): s
                 for s in benchmark_cells(platforms, seed)}
        self.kinds = [cells[kind] for kind in SIZES[size]]
        order = make_rng(derive_seed(seed, "service-order")).permutation(len(self.kinds))
        self.order = [int(i) for i in order]
        # One warm-up job per distinct input set, so no timed job generates data.
        inputs = {}
        for spec in self.kinds:
            refs = tuple(arg for arg in spec.args if isinstance(arg, WorkloadRef))
            inputs.setdefault(refs, spec)
        self.warmups = [replace(spec, seed=derive_seed(seed, ("service-warm", i)))
                        for i, spec in enumerate(inputs.values())]
        self.process: subprocess.Popen | None = None
        self.client: OneConnectionClient | None = None
        self.known: list[tuple[dict, bytes]] = []
        self.colds = 0
        self.store_stats: dict = {}
        self.cold_gets = 0
        self.poll_lag = self.queue_wait = self.run = 0.0

    # -- the server ------------------------------------------------------

    def setup(self, directory: Path, spans: Spans) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0",
             "--store", str(directory / "store")],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env,
            cwd=ROOT, text=True, preexec_fn=_stoppable_by_sigint)
        ready, _, _ = select.select([self.process.stdout], [], [], BOOT_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("serving experiments on "):
            raise RuntimeError(f"server did not start: {line!r}")
        self.client = OneConnectionClient(line.split()[3])
        self.client.health()
        if spans.enabled:
            spans.add("service.server.boot", started, time.perf_counter())
        self.known = []
        self.colds = 0
        self.cold_gets = 0
        self.poll_lag = self.queue_wait = self.run = 0.0
        for spec in self.warmups:
            job = self.client.submit(spec)
            job = self.client.wait(job["id"])
            if job["state"] != "done":
                raise RuntimeError(f"warm-up {spec.describe()} {job['state']}: "
                                   f"{job.get('error', '')}")
            self.colds += 1
            self.known.append((spec.to_json(), result_bytes(job)))

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.process is not None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()
            self.process = None

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    # -- one round -------------------------------------------------------

    def run_pass(self, number: int, spans: Spans) -> list[Outcome]:
        base = self.kinds[self.order[number % len(self.kinds)]]
        spec = replace(base, seed=derive_seed(self.seed, ("service-cold", number)))
        item = f"{number}/cold/{spec.key}"
        with spans.span("hostbench.item", str(number)):
            outcomes = self._cold(spec, item, number, spans)
            picks = random.Random(derive_seed(self.seed, ("service-resubmit", number)))
            for j, (payload, expected) in enumerate(
                    picks.choices(self.known, k=CACHED_PER_ROUND)):
                outcomes.append(self._cached(
                    payload, expected, f"{number}/cached-{j}",
                    number * CACHED_PER_ROUND + j, spans))
        return outcomes

    def _cold(self, spec, item: str, number: int, spans: Spans) -> list[Outcome]:
        duplicate = (number % DUPLICATE_EVERY == 1
                     and spec.model in ("hmm", "lda"))
        started = time.perf_counter()
        with spans.span("service.client.submit", item):
            job = self.client.submit(spec)
        if duplicate:
            with spans.span("service.client.submit", item):
                again = self.client.submit(spec)
        gets = self.client.gets
        with spans.span("service.client.wait", item):
            done = self.client.wait(job["id"])
        seen = time.time()
        latency = time.perf_counter() - started
        self.cold_gets += self.client.gets - gets
        self.colds += 1
        if done["state"] != "done" or done["cached"] or "result" not in done:
            return [Outcome(item, "", f"{item}: cold job {done['state']}, "
                            f"cached={done['cached']}: {done.get('error', '')}",
                            "cold", latency)]
        self.poll_lag += seen - done["finished_at"]
        self.queue_wait += done["started_at"] - done["submitted_at"]
        self.run += done["finished_at"] - done["started_at"]
        body = result_bytes(done)
        self.known.append((spec.to_json(), body))
        outcomes = [Outcome(item, stable_digest(body), "", "cold", latency)]
        if duplicate:
            with spans.span("service.client.wait", item):
                twin = self.client.wait(again["id"])
            reason = "" if result_bytes(twin) == body else (
                f"{item}: in-flight duplicate answered a different result")
            outcomes.append(Outcome(f"{item}/duplicate", stable_digest(body),
                                    reason, "duplicate"))
        return outcomes

    def _cached(self, payload: dict, expected: bytes, item: str, index: int,
                spans: Spans) -> Outcome:
        body = spelling(payload, index % 3)
        started = time.perf_counter()
        with spans.span("service.client.submit", item):
            job = self.client.submit(body)
        latency = time.perf_counter() - started
        if job["state"] != "done" or not job["cached"]:
            return Outcome(item, "", f"{item}: resubmission {job['state']}, "
                           f"cached={job['cached']}", "cached", latency)
        got = result_bytes(job)
        reason = "" if got == expected else (
            f"{item}: cached result differs from the cold reply")
        return Outcome(item, stable_digest(got), reason, "cached", latency)

    # -- whole-run checks and metrics --------------------------------------

    def audit(self) -> str:
        stats = self.store_stats = self.client.health()["store"]
        if stats["misses"] != self.colds or stats["entries"] != self.colds:
            return (f"store saw {stats['misses']} misses and {stats['entries']} "
                    f"entries for {self.colds} distinct cold specs")
        return ""

    def layer_metrics(self, untraced, traced, spans) -> dict[str, float]:
        colds = sum(1 for outcome in traced if outcome.kind == "cold")
        hits, misses = self.store_stats["hits"], self.store_stats["misses"]
        metrics = {
            "service.client.polls": self.cold_gets / colds,
            "service.client.poll_lag_s": self.poll_lag,
            "service.jobs.queue_wait_s": self.queue_wait,
            "service.jobs.run_s": self.run,
            "service.store.hit_share": hits / (hits + misses),
            "service.store.misses": float(misses),
        }
        samples = {"cold": [], "cached": []}
        for outcome in untraced:
            if outcome.kind in samples and not outcome.reason:
                samples[outcome.kind].append(outcome.seconds)
        for name, kind, q in (("service.client.cold_p50_s", "cold", 50),
                              ("service.client.cold_p90_s", "cold", 90),
                              ("service.client.cached_p50_s", "cached", 50)):
            try:
                metrics[name] = percentile(samples[kind], q)
            except ValueError as exc:
                print(f"{name}: {exc}", file=sys.stderr)
        return metrics
