"""Tests for cost events, the tracer, and scale maps."""

import pytest

from repro.cluster import (
    DATA,
    FIXED,
    CostEvent,
    Kind,
    MemoryEvent,
    NullTracer,
    ScaleMap,
    Site,
    Tracer,
    UnknownScaleGroup,
)


class TestEvents:
    def test_rejects_negative_quantities(self):
        with pytest.raises(ValueError):
            CostEvent(kind=Kind.COMPUTE, records=-1)
        with pytest.raises(ValueError):
            MemoryEvent(bytes=-10)

    def test_defaults(self):
        event = CostEvent(kind=Kind.COMPUTE, records=5)
        assert event.scale == DATA
        assert event.site is Site.CLUSTER

    def test_events_have_no_instance_dict(self):
        event = CostEvent(kind=Kind.COMPUTE, records=1.0)
        memory = MemoryEvent(bytes=1.0)
        assert not hasattr(event, "__dict__")
        assert not hasattr(memory, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            event.extra = 1


class TestTracer:
    def test_phases_collect_events(self):
        tracer = Tracer()
        with tracer.init_phase():
            tracer.emit(Kind.COMPUTE, records=10)
            tracer.materialize(bytes=100)
        with tracer.iteration_phase(0):
            tracer.emit(Kind.SHUFFLE, bytes=50)
        assert [p.name for p in tracer.phases] == ["init", "iteration:0"]
        assert tracer.phases[0].events[0].records == 10
        assert tracer.phases[0].memory[0].bytes == 100
        assert len(tracer.iteration_phases()) == 1

    def test_emit_outside_phase_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            tracer.emit(Kind.COMPUTE, records=1)

    def test_materialize_outside_phase_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            tracer.materialize(bytes=1)

    def test_nested_phase_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.init_phase():
                with tracer.iteration_phase(0):
                    pass

    def test_repeated_phase_names_allowed(self):
        tracer = Tracer()
        with tracer.phase("init"):
            tracer.emit(Kind.JOB, records=1)
        with tracer.phase("init"):
            tracer.emit(Kind.JOB, records=2)
        assert len(tracer.named("init")) == 2

    def test_phase_reopens_after_exception(self):
        tracer = Tracer()
        with pytest.raises(KeyError):
            with tracer.phase("boom"):
                raise KeyError("inside")
        with tracer.phase("after"):
            tracer.emit(Kind.JOB, records=1)
        assert tracer.named("after")[0].events


class TestNullTracer:
    def test_discards_everything(self):
        tracer = NullTracer()
        with tracer.phase("a"):
            with tracer.phase("b"):  # nesting allowed
                tracer.emit(Kind.COMPUTE, records=1)
                tracer.materialize(bytes=1)
        assert tracer.phases == []


class TestScaleMap:
    def test_fixed_always_one(self):
        assert ScaleMap().factor(FIXED) == 1.0

    def test_known_group(self):
        assert ScaleMap({"data": 250.0}).factor("data") == 250.0

    def test_unknown_group_raises(self):
        with pytest.raises(UnknownScaleGroup):
            ScaleMap().factor("data")

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            ScaleMap({"data": 0.0})
