"""Tracer core: span nesting, parent links, monotonic timing."""

import pytest

from repro.obs.metrics import Metrics
from repro.obs.trace import Tracer


class FakeClock:
    """A deterministic clock the tests can step explicitly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


class TestSpanNesting:
    def test_root_span_has_no_parent(self, tracer):
        with tracer.span("run") as span:
            pass
        assert span.parent_id is None
        assert tracer.roots() == [span]

    def test_nested_span_points_at_enclosing_span(self, tracer):
        with tracer.span("run") as outer:
            with tracer.span("check") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert tracer.children_of(outer) == [inner]

    def test_sibling_spans_share_a_parent(self, tracer):
        with tracer.span("check") as parent:
            with tracer.span("plan") as first:
                pass
            with tracer.span("refine") as second:
                pass
        assert first.parent_id == parent.span_id
        assert second.parent_id == parent.span_id

    def test_sequential_roots_do_not_nest(self, tracer):
        with tracer.span("check") as first:
            pass
        with tracer.span("check") as second:
            pass
        assert second.parent_id is None
        assert len(tracer.roots()) == 2
        assert first.span_id != second.span_id

    def test_span_ids_are_unique_and_increasing(self, tracer):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        ids = [span.span_id for span in tracer.spans]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_exception_closes_the_span(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("run"):
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.finished
        assert tracer.active_span is None

    def test_tags_recorded_and_mutable(self, tracer):
        with tracer.span("check", name="SP02", model="T") as span:
            span.set_tag("states", 42)
        assert span.tags == {"name": "SP02", "model": "T", "states": 42}


class TestTiming:
    def test_duration_is_end_minus_start(self, tracer, clock):
        with tracer.span("work"):
            clock.advance(0.25)
        (span,) = tracer.spans
        assert span.duration_ms == pytest.approx(250.0)

    def test_open_span_reports_zero_duration(self, tracer):
        with tracer.span("work") as span:
            assert not span.finished
            assert span.duration_ms == 0.0
        assert span.finished

    def test_timing_is_monotonic_across_nesting(self, tracer, clock):
        with tracer.span("outer") as outer:
            clock.advance(0.1)
            with tracer.span("inner") as inner:
                clock.advance(0.2)
            clock.advance(0.1)
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert inner.start <= inner.end
        # the child fits strictly inside the parent's interval
        assert outer.duration_ms > inner.duration_ms

    def test_real_clock_timing_monotonic(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_metrics_registry_attached(self):
        tracer = Tracer(metrics=Metrics())
        tracer.metrics.counter("x").inc(3)
        assert tracer.metrics.snapshot() == {"x": 3}
