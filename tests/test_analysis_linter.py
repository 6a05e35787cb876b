"""Tests for repro.analysis: the determinism & contract linter.

Each rule has a fixture that trips it exactly once (source strings
linted under a path that selects the right profile), a clean fixture
proves the negative, and the baseline round-trip checks that
grandfathered findings are suppressed, stale entries are reported, and
removal of the baseline re-reports everything.  The meta-test at the
bottom holds the repository itself to the contract.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    Baseline,
    lint_paths,
    lint_source,
    profile_for,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

# Fixture paths: the path string alone selects the profile.
ENGINE_PATH = "src/repro/dataflow/fixture_mod.py"
CLUSTER_PATH = "src/repro/cluster/fixture_mod.py"  # engine + wall-clock ban
KERNEL_PATH = "src/repro/kernels/fixture_kernel.py"
IMPLS_PATH = "src/repro/impls/fixture_impl.py"
HARNESS_PATH = "src/repro/bench/fixture_bench.py"
SCRIPT_PATH = "benchmarks/fixture_script.py"


def only_finding(path: str, source: str, rule: str):
    """Lint and assert exactly one finding of ``rule``; return it."""
    findings = lint_source(path, source)
    assert [f.rule for f in findings] == [rule], (
        f"expected exactly one {rule}, got "
        f"{[(f.rule, f.line, f.message) for f in findings]}")
    return findings[0]


class TestProfiles:
    def test_path_routing(self):
        assert profile_for("src/repro/kernels/gmm.py").name == "kernel"
        assert profile_for("src/repro/impls/spark.py").name == "impls"
        assert profile_for("src/repro/bench/pool.py").name == "harness"
        assert profile_for("src/repro/stats/rng.py").name == "rng-chokepoint"
        assert profile_for("src/repro/dataflow/rdd.py").name == "engine"
        assert profile_for("src/repro/service/spec.py").name == "service"
        assert profile_for("benchmarks/microbench.py").name == "scripts"
        assert profile_for("tests/test_anything.py").name == "tests"
        assert profile_for("benchmarks/conftest.py").name == "tests"

    def test_service_layer_is_clock_free_except_job_timing(self):
        """The service profile is strict: D003 bans wall-clock reads in
        spec/store/server/execution code, with jobs.py (job timestamps)
        the single exemption, and R001 keeps payloads picklable."""
        from repro.analysis.profiles import wallclock_banned

        service = profile_for("src/repro/service/store.py")
        assert service.name == "service"
        assert service.strict_rng
        assert {"D003", "R001"} <= set(service.rules)
        for module in ("spec", "store", "server", "client", "execution", "cli"):
            assert wallclock_banned(f"src/repro/service/{module}.py")
        assert not wallclock_banned("src/repro/service/jobs.py")
        assert profile_for("src/repro/service/jobs.py").name == "service"

    def test_trace_algebra_is_engine_code(self):
        """The vectorized simulator core carries the full engine
        contract: strict RNG discipline and no wall-clock reads."""
        from repro.analysis.profiles import wallclock_banned

        path = "src/repro/cluster/tracealgebra.py"
        assert profile_for(path).name == "engine"
        assert wallclock_banned(path)

    def test_rule_metadata_complete(self):
        ids = [rule.id for rule in ALL_RULES]
        assert len(ids) == len(set(ids))
        for rule in ALL_RULES:
            assert rule.id and rule.title and rule.hint and rule.doc


class TestD001BuiltinHash:
    def test_trips_on_builtin_hash(self):
        src = "def place(key, machines):\n    return hash(key) % machines\n"
        finding = only_finding(ENGINE_PATH, src, "D001")
        assert finding.line == 2
        assert "stable_hash" in finding.hint

    def test_shadowed_hash_is_not_the_builtin(self):
        src = ("def hash(key):\n    return 7\n\n"
               "def place(key):\n    return hash(key) % 4\n")
        assert lint_source(ENGINE_PATH, src) == []


class TestD002GlobalRng:
    def test_unseeded_default_rng_flagged_even_in_scripts(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        finding = only_finding(SCRIPT_PATH, src, "D002")
        assert "entropy-seeded" in finding.message

    def test_seeded_default_rng_allowed_in_scripts(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert lint_source(SCRIPT_PATH, src) == []

    def test_seeded_default_rng_flagged_in_engine_code(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        finding = only_finding(ENGINE_PATH, src, "D002")
        assert "chokepoint" in finding.message
        assert "make_rng" in finding.hint

    def test_bare_default_rng_reference_flagged_in_engine_code(self):
        src = ("import numpy as np\n\n"
               "def build(make=np.random.default_rng):\n    return make(1)\n")
        finding = only_finding(ENGINE_PATH, src, "D002")
        assert "make_rng" in finding.hint

    def test_module_level_numpy_sampler_flagged_everywhere(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        finding = only_finding(SCRIPT_PATH, src, "D002")
        assert "global" in finding.message.lower()

    def test_stdlib_random_flagged(self):
        src = "import random\nx = random.random()\n"
        only_finding(SCRIPT_PATH, src, "D002")

    def test_alias_resolution_sees_through_from_import(self):
        src = ("from numpy.random import default_rng\n"
               "rng = default_rng()\n")
        only_finding(SCRIPT_PATH, src, "D002")

    def test_make_rng_is_the_blessed_spelling(self):
        src = ("from repro.stats import make_rng\n"
               "rng = make_rng(42)\n")
        assert lint_source(ENGINE_PATH, src) == []


class TestD003WallClock:
    SRC = "import time\n\ndef cost():\n    return time.perf_counter()\n"

    def test_trips_on_simulated_cost_path(self):
        finding = only_finding(CLUSTER_PATH, self.SRC, "D003")
        assert finding.line == 4

    def test_harness_may_measure_time(self):
        assert lint_source(HARNESS_PATH, self.SRC) == []
        assert lint_source(SCRIPT_PATH, self.SRC) == []


class TestD004SetIteration:
    def test_trips_on_set_variable_iteration(self):
        src = ("def emit(names):\n"
               "    pending = set(names)\n"
               "    return [n for n in pending]\n")
        only_finding(ENGINE_PATH, src, "D004")

    def test_sorted_wrapper_is_the_fix(self):
        src = ("def emit(names):\n"
               "    pending = set(names)\n"
               "    return [n for n in sorted(pending)]\n")
        assert lint_source(ENGINE_PATH, src) == []

    def test_explicit_keys_call_in_iteration_slot(self):
        src = "def emit(d):\n    return list(d.keys())\n"
        only_finding(ENGINE_PATH, src, "D004")

    def test_plain_dict_iteration_is_insertion_ordered_and_fine(self):
        src = "def emit(d):\n    return [k for k in d]\n"
        assert lint_source(ENGINE_PATH, src) == []


class TestK001KernelSignature:
    # The fixtures carry SCALAR_ONLY tables so K002 stays quiet and each
    # test isolates the signature rule.
    def test_public_sampler_must_take_rng(self):
        src = ("SCALAR_ONLY = (\"sample_topic\",)\n"
               "BATCH_TWINS = {}\n\n"
               "def sample_topic(counts):\n    return counts[0]\n")
        finding = only_finding(KERNEL_PATH, src, "K001")
        assert "sample_topic" in finding.message

    def test_kernel_must_not_build_its_own_generator(self):
        src = ("from repro.stats import make_rng\n\n"
               "SCALAR_ONLY = (\"sample_topic\",)\n"
               "BATCH_TWINS = {}\n\n"
               "def sample_topic(rng, counts):\n"
               "    local = make_rng(0)\n"
               "    return local.random()\n")
        only_finding(KERNEL_PATH, src, "K001")

    def test_conforming_kernel_is_clean(self):
        src = ("SCALAR_ONLY = (\"sample_topic\",)\n"
               "BATCH_TWINS = {}\n\n"
               "def sample_topic(rng, counts):\n"
               "    return rng.random() * counts[0]\n\n"
               "def _private_helper(counts):\n    return counts\n")
        assert lint_source(KERNEL_PATH, src) == []


class TestK002BatchTwins:
    CONFORMING = (
        "BATCH_TWINS = {\"sample_topic\": \"sample_topics_batch\"}\n"
        "SCALAR_ONLY = (\"initial_state\",)\n\n"
        "def sample_topic(rng, counts):\n    return rng.random()\n\n"
        "def sample_topics_batch(rng, rows):\n    return rng.random(len(rows))\n\n"
        "def initial_state(rng, k):\n    return rng.random(k)\n"
    )

    def test_conforming_tables_are_clean(self):
        assert lint_source(KERNEL_PATH, self.CONFORMING) == []

    def test_sampler_module_without_tables(self):
        src = "def sample_topic(rng, counts):\n    return rng.random()\n"
        finding = only_finding(KERNEL_PATH, src, "K002")
        assert "no BATCH_TWINS table" in finding.message

    def test_undeclared_sampler(self):
        src = self.CONFORMING + "\ndef draw_extra(rng):\n    return rng.random()\n"
        finding = only_finding(KERNEL_PATH, src, "K002")
        assert "draw_extra" in finding.message
        assert "neither" in finding.message

    def test_twin_must_resolve_to_a_module_function(self):
        src = ("BATCH_TWINS = {\"sample_topic\": \"sample_topics_batch\"}\n\n"
               "def sample_topic(rng, counts):\n    return rng.random()\n")
        finding = only_finding(KERNEL_PATH, src, "K002")
        assert "sample_topics_batch" in finding.message

    def test_batch_twin_must_mirror_rng_first(self):
        src = ("BATCH_TWINS = {\"sample_topic\": \"topic_rows_fast\"}\n\n"
               "def sample_topic(rng, counts):\n    return rng.random()\n\n"
               "def topic_rows_fast(rows):\n    return rows\n")
        finding = only_finding(KERNEL_PATH, src, "K002")
        assert "rng-first" in finding.message

    def test_rng_must_come_first_in_a_twin_pair(self):
        src = ("BATCH_TWINS = {\"sample_topic\": \"sample_topics_batch\"}\n\n"
               "def sample_topic(counts, rng):\n    return rng.random()\n\n"
               "def sample_topics_batch(rows, rng):\n    return rows\n")
        findings = lint_source(KERNEL_PATH, src)
        assert [f.rule for f in findings] == ["K002", "K002"]
        assert all("first parameter" in f.message for f in findings)

    def test_non_literal_table_is_flagged(self):
        src = ("_PAIRS = [(\"a\", \"b\")]\n"
               "BATCH_TWINS = dict(_PAIRS)\n")
        finding = only_finding(KERNEL_PATH, src, "K002")
        assert "literal dict" in finding.message

    def test_tables_only_apply_to_kernel_modules(self):
        src = "def sample_topic(rng, counts):\n    return rng.random()\n"
        assert lint_source(ENGINE_PATH, src) == []


class TestR001Picklability:
    def test_lambda_registered_in_registry(self):
        src = "REGISTRY = {}\nREGISTRY['gmm'] = lambda: 1\n"
        only_finding(IMPLS_PATH, src, "R001")

    def test_lambda_rng_maker_kwarg(self):
        src = ("def build(data_factory):\n"
               "    return data_factory('spark', rng_maker=lambda s: s)\n")
        only_finding(IMPLS_PATH, src, "R001")

    def test_module_level_function_is_fine(self):
        src = ("def make_gmm():\n    return 1\n\n"
               "REGISTRY = {}\nREGISTRY['gmm'] = make_gmm\n")
        assert lint_source(IMPLS_PATH, src) == []


class TestM001MutableDefault:
    def test_trips_once(self):
        src = "def accumulate(x, acc=[]):\n    acc.append(x)\n    return acc\n"
        only_finding("tests/test_fixture.py", src, "M001")

    def test_none_default_is_the_fix(self):
        src = ("def accumulate(x, acc=None):\n"
               "    acc = [] if acc is None else acc\n"
               "    acc.append(x)\n    return acc\n")
        assert lint_source("tests/test_fixture.py", src) == []


class TestSyntaxError:
    def test_unparsable_file_reports_e000(self):
        findings = lint_source(ENGINE_PATH, "def broken(:\n")
        assert [f.rule for f in findings] == ["E000"]


CLEAN_ENGINE_MODULE = '''\
"""A module that honours every contract."""

from repro.hashing import stable_hash
from repro.stats import make_rng, spawn_child


def place(key, machines):
    return stable_hash(key) % machines


def run(seed, names):
    rng = make_rng(seed)
    child = spawn_child(rng, "worker")
    return [(name, child.random()) for name in sorted(set(names))]
'''


def test_clean_fixture_has_no_findings():
    assert lint_source(ENGINE_PATH, CLEAN_ENGINE_MODULE) == []


class TestBaseline:
    VIOLATION = "import numpy as np\nrng = np.random.default_rng(42)\n"

    def test_round_trip(self, tmp_path):
        findings = lint_source(ENGINE_PATH, self.VIOLATION)
        assert findings
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings, "figures depend on this stream").save(path)

        baseline = Baseline.load(path)
        new, suppressed, stale = baseline.split(findings)
        assert new == [] and len(suppressed) == len(findings) and stale == []

        # Violation fixed: every baseline entry is now stale.
        new, suppressed, stale = baseline.split([])
        assert new == [] and suppressed == [] and len(stale) == len(findings)

        # Baseline removed: findings report again.
        new, suppressed, stale = Baseline().split(findings)
        assert len(new) == len(findings) and suppressed == [] and stale == []

    def test_load_rejects_blank_justifications(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 1, "entries": {"a.py:1:D001": " "}}))
        with pytest.raises(ValueError, match="justification"):
            Baseline.load(path)

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": {}}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
    )


class TestCli:
    @pytest.fixture()
    def dirty_file(self, tmp_path):
        target = tmp_path / "src" / "repro" / "cluster"
        target.mkdir(parents=True)
        path = target / "fixture_mod.py"
        path.write_text("import numpy as np\nrng = np.random.default_rng(42)\n")
        return path

    def test_findings_exit_1_and_baseline_suppresses(self, tmp_path, dirty_file):
        first = run_cli([str(dirty_file)], cwd=tmp_path)
        assert first.returncode == 1
        assert "D002" in first.stdout

        baseline = tmp_path / "baseline.json"
        wrote = run_cli([f"--write-baseline={baseline}", str(dirty_file)],
                        cwd=tmp_path)
        assert wrote.returncode == 0  # an explicit grandfathering action
        assert "TODO" in wrote.stdout  # ...but justifications start unfinished
        assert baseline.is_file()

        suppressed = run_cli([f"--baseline={baseline}", str(dirty_file)],
                             cwd=tmp_path)
        assert suppressed.returncode == 0, suppressed.stdout

        # Fix the violation: the baseline entry is now stale -> exit 1.
        dirty_file.write_text(
            "from repro.stats import make_rng\nrng = make_rng(42)\n")
        stale = run_cli([f"--baseline={baseline}", str(dirty_file)],
                        cwd=tmp_path)
        assert stale.returncode == 1
        assert "stale" in stale.stdout.lower()

    def test_json_format_is_machine_readable(self, tmp_path, dirty_file):
        result = run_cli(["--format", "json", str(dirty_file)], cwd=tmp_path)
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["findings"] == 1  # count; the list itself is "items"
        assert payload["items"][0]["rule"] == "D002"
        assert payload["by_rule"]["D002"] == 1

    def test_stats_reports_every_rule(self, tmp_path, dirty_file):
        result = run_cli(["--stats", str(dirty_file)], cwd=tmp_path)
        assert result.returncode == 1
        for rule in ALL_RULES:
            assert rule.id in result.stdout


SERVICE_PATH = "src/repro/service/fixture_service.py"


class TestInterproceduralRouting:
    """The new rule families reach exactly the layers they police."""

    def test_family_routing(self):
        from repro.analysis.profiles import profile_for as pf

        assert {"C001", "F001", "L001", "P001"} <= pf(ENGINE_PATH).rules
        for path in (KERNEL_PATH, IMPLS_PATH, HARNESS_PATH, SERVICE_PATH):
            assert {"C001", "F001", "L001"} <= pf(path).rules
            assert "P001" not in pf(path).rules
        assert {"C001", "F001"} <= pf(SCRIPT_PATH).rules
        assert "L001" not in pf(SCRIPT_PATH).rules
        assert "L001" in pf("src/repro/stats/rng.py").rules
        assert pf("tests/test_x.py").rules == frozenset({"M001"})

    def test_project_rule_metadata_complete(self):
        from repro.analysis.rules import PROJECT_RULES

        assert {r.id for r in PROJECT_RULES} == \
            {"F001", "C001", "L001", "P001"}
        for rule in PROJECT_RULES:
            assert rule.id and rule.title and rule.hint and rule.doc

    def test_pure_trace_scope(self):
        from repro.analysis.profiles import pure_trace

        assert pure_trace("src/repro/cluster/tracealgebra.py")
        assert pure_trace("src/repro/cluster/faults.py")
        assert not pure_trace("src/repro/cluster/elastic.py")


class TestC001LockDisciplineLocal:
    def test_unlocked_touch_trips(self):
        src = ("import threading\n"
               "class Racy:\n"
               "    def __init__(self):\n"
               "        self._lock = threading.Lock()\n"
               "        self.n = 0\n"
               "    def bump(self):\n"
               "        with self._lock:\n"
               "            self.n += 1\n"
               "    def peek(self):\n"
               "        return self.n\n")
        finding = only_finding(SERVICE_PATH, src, "C001")
        assert "Racy.peek()" in finding.message

    def test_unguarded_class_is_not_policed(self):
        src = ("class Plain:\n"
               "    def __init__(self):\n"
               "        self.n = 0\n"
               "    def bump(self):\n"
               "        self.n += 1\n")
        assert lint_source(SERVICE_PATH, src) == []


PLANTED_RACE = """\
import threading


class Racy:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1

    def peek(self):
        return self.count
"""


class TestCliInterproc:
    def plant(self, tmp_path, rel, source):
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        return target

    def test_negative_control_planted_race_exits_1(self, tmp_path):
        """The CI canary: a planted race must fail the build."""
        self.plant(tmp_path, "src/repro/service/racy.py", PLANTED_RACE)
        result = run_cli([str(tmp_path / "src")], cwd=tmp_path)
        assert result.returncode == 1
        assert "C001" in result.stdout
        assert "Racy.peek()" in result.stdout

    def test_graph_stats_in_json_payload(self, tmp_path):
        self.plant(tmp_path, "src/repro/dataflow/e.py",
                   "from repro.kernels.k import f\n"
                   "def run(x):\n    return f(x)\n")
        self.plant(tmp_path, "src/repro/kernels/k.py",
                   "def f(x):\n    return x\n")
        result = run_cli(["--graph", "--format", "json",
                          str(tmp_path / "src")], cwd=tmp_path)
        assert result.returncode == 0, result.stdout
        payload = json.loads(result.stdout)
        graph = payload["graph"]
        assert graph["modules"] == 2
        assert graph["import_edges"] == 1
        assert graph["call_edges"] == 1
        assert {"engines", "kernels"} <= set(graph["layers"])


def test_repository_lints_clean():
    """The meta-test: the tree the figures are built from has no findings.

    ``lint_paths`` runs the full two-tier analysis, so this holds the
    repository to the interprocedural families (F001/C001/L001/P001 and
    suppression hygiene) as well as the local rules.
    """
    paths = [REPO_ROOT / name for name in ("src", "benchmarks", "examples")]
    findings, files_scanned = lint_paths([p for p in paths if p.exists()])
    assert files_scanned > 50
    assert findings == [], "\n".join(f.render() for f in findings)
