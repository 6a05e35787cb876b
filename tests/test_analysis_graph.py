"""Tests for repro.analysis.graph: naming, layers, call resolution.

Fixture projects are written into tmp_path with the real ``src/repro``
layout so :func:`repro.analysis.engine.run_analysis` builds them into a
ProjectGraph exactly the way a CLI run over the repository does.
"""

from __future__ import annotations

from repro.analysis.engine import run_analysis
from repro.analysis.graph import (
    LAYER_ALLOWED,
    LAYER_PACKAGES,
    layer_of,
    module_name_for,
)


def build(tmp_path, files):
    """Write {relative path: source} and return the analysis result."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return run_analysis([tmp_path / "src"])


class TestModuleNaming:
    def test_src_relative(self):
        assert (module_name_for("src/repro/cluster/faults.py")
                == "repro.cluster.faults")
        assert module_name_for("src/repro/__init__.py") == "repro"
        assert (module_name_for("/abs/repo/src/repro/stats/rng.py")
                == "repro.stats.rng")

    def test_script_roots(self):
        assert module_name_for("benchmarks/microbench.py") == \
            "benchmarks.microbench"
        assert module_name_for("examples/fleet_advisor.py") == \
            "examples.fleet_advisor"

    def test_layers_longest_prefix_wins(self):
        assert layer_of("repro.stats.rng") == "base"
        assert layer_of("repro.kernels.gmm") == "kernels"
        assert layer_of("repro.graph.supervertex") == "engines"
        assert layer_of("repro") == "root"
        assert layer_of("benchmarks.microbench") is None

    def test_layer_table_is_closed(self):
        layers = set(LAYER_PACKAGES.values())
        assert set(LAYER_ALLOWED) == layers
        for layer, allowed in LAYER_ALLOWED.items():
            assert layer in allowed or layer == "analysis", layer
            assert allowed <= layers | {layer}


class TestResolution:
    def test_import_from_and_alias(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/dataflow/util.py":
                "def helper(x):\n    return x\n",
            "src/repro/dataflow/driver.py":
                "from repro.dataflow.util import helper as h\n"
                "import repro.dataflow.util as u\n"
                "def run():\n"
                "    h(1)\n"
                "    u.helper(2)\n",
        })
        edges = result.project.graph.call_edges()
        assert edges.count(("repro.dataflow.driver::run",
                            "repro.dataflow.util::helper")) == 2

    def test_reexport_chain_through_init(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/dataflow/__init__.py":
                "from repro.dataflow.util import helper\n",
            "src/repro/dataflow/util.py":
                "def helper(x):\n    return x\n",
            "src/repro/dataflow/driver.py":
                "from repro.dataflow import helper\n"
                "def run():\n    helper(1)\n",
        })
        assert (("repro.dataflow.driver::run",
                 "repro.dataflow.util::helper")
                in result.project.graph.call_edges())

    def test_method_calls_resolve(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/dataflow/engine.py":
                "class Engine:\n"
                "    def run(self):\n"
                "        return self.step()\n"
                "    def step(self):\n"
                "        return 1\n"
                "def use():\n"
                "    e = Engine()\n"
                "    return e.run()\n",
            "src/repro/dataflow/holder.py":
                "from repro.dataflow.engine import Engine\n"
                "class Holder:\n"
                "    def __init__(self):\n"
                "        self._engine = Engine()\n"
                "    def go(self):\n"
                "        return self._engine.run()\n",
        })
        edges = set(result.project.graph.call_edges())
        # self.step() from Engine.run
        assert ("repro.dataflow.engine::Engine.run",
                "repro.dataflow.engine::Engine.step") in edges
        # local-instance method call on a same-module class
        assert ("repro.dataflow.engine::use",
                "repro.dataflow.engine::Engine.run") in edges
        # self.<attr>.method() through the attribute's recorded type
        assert ("repro.dataflow.holder::Holder.go",
                "repro.dataflow.engine::Engine.run") in edges

    def test_base_class_method_resolution(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/dataflow/base.py":
                "class Base:\n"
                "    def shared(self):\n"
                "        return 1\n",
            "src/repro/dataflow/child.py":
                "from repro.dataflow.base import Base\n"
                "class Child(Base):\n"
                "    def run(self):\n"
                "        return self.shared()\n",
        })
        assert (("repro.dataflow.child::Child.run",
                 "repro.dataflow.base::Base.shared")
                in result.project.graph.call_edges())


class TestSummariesAndStats:
    def test_class_summary_records_lock_discipline(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/service/box.py":
                "import threading\n"
                "class Box:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self.count = 0\n"
                "    def add(self, item):\n"
                "        with self._lock:\n"
                "            self.count += 1\n",
        })
        summary = result.project.graph.modules["repro.service.box"]
        assert summary.classes["Box"].lock_attrs == ("_lock",)
        assert "count" in summary.classes["Box"].guarded

    def test_graph_stats_shape(self, tmp_path):
        result = build(tmp_path, {
            "src/repro/kernels/k.py": "def sample_x(rng):\n    return 0\n",
            "src/repro/dataflow/e.py":
                "from repro.kernels.k import sample_x\n"
                "def run(rng):\n    return sample_x(rng)\n",
        })
        stats = result.project.graph.stats()
        assert stats["modules"] == 2
        assert stats["functions"] == 2
        assert stats["import_edges"] == 1
        assert ("repro.dataflow.e -> repro.kernels.k" in stats["imports"])
        assert stats["layers"]["engines"]["fan_out"] == 1
        assert stats["layers"]["kernels"]["fan_in"] == 1
        assert stats["call_edges"] == 1
