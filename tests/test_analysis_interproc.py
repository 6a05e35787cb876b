"""Tests for the interprocedural rule families: F001, C001, L001, P001.

Each fixture is a miniature project written under tmp_path with the real
``src/repro`` layout (paths select profiles), then fed to
:func:`repro.analysis.engine.run_analysis`.  Every tripped rule has a
clean twin proving the rule keys on the violation, not the shape.
"""

from __future__ import annotations

from repro.analysis.engine import run_analysis


def build(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return run_analysis([tmp_path / "src"])


def rule_findings(result, rule):
    return [f for f in result.findings if f.rule == rule]


class TestRngStreamFlow:
    def test_direct_sink_function(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/dataflow/fan.py":
                "from repro.fastpath import pool_map\n"
                "from repro.stats.rng import make_rng\n"
                "def scatter(tasks):\n"
                "    rng = make_rng(7)\n"
                "    return pool_map(rng, tasks)\n",
        })
        found = rule_findings(result, "F001")
        assert len(found) == 1
        assert "scatter() passes a numpy Generator into pool_map()" \
            in found[0].message

    def test_constructor_sink(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/dataflow/ship.py":
                "from threading import Thread\n"
                "def launch(rng, work):\n"
                "    return Thread(target=work, args=rng)\n",
        })
        found = rule_findings(result, "F001")
        assert len(found) == 1
        assert "Thread" in found[0].message

    def test_transitive_escape(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/dataflow/flows.py":
                "from repro.stats.rng import make_rng\n"
                "from repro.fastpath import pool_map\n"
                "def helper(rng, tasks):\n"
                "    return pool_map(rng, tasks)\n"
                "def driver(tasks):\n"
                "    rng = make_rng(7)\n"
                "    return helper(rng, tasks)\n",
        })
        messages = [f.message for f in rule_findings(result, "F001")]
        assert any("helper() passes a numpy Generator into pool_map()"
                   in m for m in messages)
        assert any("driver() passes a numpy Generator to helper(), whose "
                   "parameter 'rng' escapes into pool_map()" in m
                   for m in messages)

    def test_clean_twin_seed_crosses_not_generator(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/dataflow/clean.py":
                "from repro.stats.rng import derive_seed, make_rng, "
                "spawn_child\n"
                "from repro.fastpath import pool_map\n"
                "def scatter(seed, tasks):\n"
                "    child_seed = derive_seed(seed, 'scatter')\n"
                "    return pool_map(child_seed, tasks)\n"
                "def local_draws(rng, kernel):\n"
                "    child = spawn_child(rng, 'local')\n"
                "    return kernel(child)\n",
        })
        assert rule_findings(result, "F001") == []


class TestLockDiscipline:
    RACY = (
        "import threading\n"
        "class Racy:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.count = 0\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self.count += 1\n"
        "    def peek(self):\n"
        "        return self.count\n"
    )

    def test_unlocked_read_of_guarded_field(self, tmp_path):
        result = build(tmp_path, {"src/repro/service/racy.py": self.RACY})
        found = rule_findings(result, "C001")
        assert len(found) == 1
        assert ("Racy.peek() touches self.count without self._lock"
                in found[0].message)

    def test_clean_twin_all_access_locked(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/service/safe.py":
                "import threading\n"
                "class Safe:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self.count = 0\n"
                "    def bump(self):\n"
                "        with self._lock:\n"
                "            self.count += 1\n"
                "    def peek(self):\n"
                "        with self._lock:\n"
                "            return self.count\n",
        })
        assert rule_findings(result, "C001") == []

    def test_init_is_exempt(self, tmp_path):
        # The unlocked writes in __init__ above never fire: no concurrent
        # alias exists during construction.
        result = build(tmp_path, {"src/repro/service/racy.py": self.RACY})
        assert all("__init__" not in f.message
                   for f in rule_findings(result, "C001"))

    def test_external_write_to_guarded_field(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/service/counter.py":
                "import threading\n"
                "class Counter:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self.total = 0\n"
                "    def bump(self):\n"
                "        with self._lock:\n"
                "            self.total += 1\n",
            "src/repro/service/meddler.py":
                "from repro.service.counter import Counter\n"
                "def reset():\n"
                "    c = Counter()\n"
                "    c.total = 0\n"
                "    return c\n",
        })
        found = rule_findings(result, "C001")
        assert len(found) == 1
        assert ("reset() writes Counter.total from outside the class"
                in found[0].message)
        assert found[0].path.endswith("meddler.py")

    def test_suppression_silences_with_reason(self, tmp_path):
        suppressed = self.RACY.replace(
            "        return self.count\n",
            "        return self.count  "
            "# repro: allow[C001] racy read is a monitoring hint only\n")
        result = build(tmp_path, {"src/repro/service/racy.py": suppressed})
        assert rule_findings(result, "C001") == []
        assert rule_findings(result, "S001") == []
        assert result.suppressions_used == 1


class TestSuppressionHygiene:
    def test_stale_suppression_is_s001(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/dataflow/fine.py":
                "def add(a, b):\n"
                "    return a + b  # repro: allow[F001] nothing here\n",
        })
        found = rule_findings(result, "S001")
        assert len(found) == 1
        assert "stale suppression" in found[0].message

    def test_reasonless_suppression_is_s001(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/service/racy.py":
                TestLockDiscipline.RACY.replace(
                    "        return self.count\n",
                    "        return self.count  # repro: allow[C001]\n"),
        })
        found = rule_findings(result, "S001")
        assert len(found) == 1
        assert "no reason" in found[0].message
        # The reasonless suppression does not hide the C001 finding.
        assert len(rule_findings(result, "C001")) == 1

    def test_marker_inside_string_is_not_a_suppression(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/dataflow/strings.py":
                "HINT = \"# repro: allow[C001] caller holds the lock\"\n",
        })
        assert rule_findings(result, "S001") == []


class TestLayerContracts:
    def test_upward_imports_flagged(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/kernels/uphill.py":
                "from repro.dataflow.engine import Engine\n",
            "src/repro/models/uphill.py":
                "from repro.graph.supervertex import group_rows\n",
            "src/repro/dataflow/uplayer.py":
                "from repro.impls.registry import REGISTRY\n",
        })
        found = rule_findings(result, "L001")
        assert len(found) == 3
        messages = " | ".join(f.message for f in found)
        assert "kernels module repro.kernels.uphill imports" in messages
        assert "models module repro.models.uphill imports" in messages
        assert "engines module repro.dataflow.uplayer imports" in messages

    def test_allowed_imports_clean(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/dataflow/down.py":
                "from repro.kernels.gmm import sample_assignment\n"
                "from repro.stats.rng import make_rng\n",
            "src/repro/impls/wide.py":
                "from repro.dataflow.engine import Engine\n"
                "from repro.models.lr import LogisticRegression\n",
        })
        assert rule_findings(result, "L001") == []

    def test_analysis_must_stay_stdlib_only(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/analysis/sneaky.py": "import numpy as np\n",
        })
        found = rule_findings(result, "L001")
        assert len(found) == 1
        assert "analysis imports numpy" in found[0].message

    def test_transitive_wallclock_reach(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/workloads/timing.py":
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n",
            "src/repro/cluster/sim.py":
                "from repro.workloads.timing import stamp\n"
                "def step():\n"
                "    return stamp()\n",
        })
        found = rule_findings(result, "L001")
        assert len(found) == 1
        assert found[0].path.endswith("cluster/sim.py")
        assert "step() reaches the host clock transitively" in found[0].message
        # The direct reader is D003's business, not L001's — and it lives
        # outside the banned zone here, so no D003 either.
        assert rule_findings(result, "D003") == []

    def test_jobs_py_absorbs_clock_taint(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/service/jobs.py":
                "import time\n"
                "def now_ms():\n"
                "    return time.time()\n",
            "src/repro/service/api.py":
                "from repro.service.jobs import now_ms\n"
                "def handle():\n"
                "    return now_ms()\n",
        })
        assert rule_findings(result, "L001") == []
        assert rule_findings(result, "D003") == []


class TestTracePurity:
    def test_direct_store_mutation(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/cluster/tracealgebra.py":
                "def replay(events):\n"
                "    events[0] = None\n"
                "    return events\n",
        })
        found = rule_findings(result, "P001")
        assert len(found) == 1
        assert "replay() mutates its parameter 'events'" in found[0].message

    def test_mutator_method_on_param(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/cluster/faults.py":
                "def inject(table, event):\n"
                "    table.rows.append(event)\n"
                "    return table\n",
        })
        found = rule_findings(result, "P001")
        assert len(found) == 1
        assert "'table'" in found[0].message

    def test_transitive_mutation_through_helper(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/cluster/tracealgebra.py":
                "def _stamp(events):\n"
                "    events[0] = None\n"
                "def replay(events):\n"
                "    _stamp(events)\n"
                "    return events\n",
        })
        params = {f.message.split("'")[1]
                  for f in rule_findings(result, "P001")}
        # Both the helper and the caller that hands its input over.
        assert params == {"events"}
        assert len(rule_findings(result, "P001")) == 2

    def test_clean_twins(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/cluster/tracealgebra.py":
                "def fill(events, out):\n"
                "    out[0] = events[0]\n"          # write-intent param
                "    return out\n"
                "def fresh(events):\n"
                "    copied = list(events)\n"       # call breaks the alias
                "    copied.append(None)\n"
                "    return copied\n",
        })
        assert rule_findings(result, "P001") == []

    def test_scope_is_pure_trace_files_only(self, tmp_path):
        # Same mutation outside tracealgebra/faults: P001 stays silent.
        result = build(tmp_path, {
            "src/repro/cluster/elastic.py":
                "def resize(events):\n"
                "    events[0] = None\n"
                "    return events\n",
        })
        assert rule_findings(result, "P001") == []
