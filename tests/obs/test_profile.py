"""Exclusive-time profile aggregation: stage sums equal wall time."""

import pytest

from repro.obs.profile import (
    OTHER_STAGE,
    STAGE_ORDER,
    aggregate_spans,
    overall_profile,
    profile_of,
)
from repro.obs.trace import Tracer
from tests.obs.test_trace import FakeClock


def _traced_check():
    """One check span with plan/compile/normalise/refine children.

    Timeline (ms): check opens, 2 untraced, plan 3, compile 10,
    normalise 5, refine 20, 1 untraced, check closes.  Total 41.
    """
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("check", name="SP02") as root:
        clock.advance(0.002)
        with tracer.span("plan"):
            clock.advance(0.003)
        with tracer.span("compile"):
            clock.advance(0.010)
        with tracer.span("normalise"):
            clock.advance(0.005)
        with tracer.span("refine"):
            clock.advance(0.020)
        clock.advance(0.001)
    return tracer, root


class TestAggregation:
    def test_exclusive_time_per_stage(self):
        tracer, root = _traced_check()
        profile = profile_of(tracer, root)
        assert profile.stage_ms("plan") == pytest.approx(3.0)
        assert profile.stage_ms("compile") == pytest.approx(10.0)
        assert profile.stage_ms("normalise") == pytest.approx(5.0)
        assert profile.stage_ms("refine") == pytest.approx(20.0)

    def test_structural_span_self_time_lands_in_other(self):
        tracer, root = _traced_check()
        profile = profile_of(tracer, root)
        # the check span's own 3 ms (2 before + 1 after the children)
        assert profile.stage_ms(OTHER_STAGE) == pytest.approx(3.0)

    def test_stage_sum_equals_total(self):
        tracer, root = _traced_check()
        profile = profile_of(tracer, root)
        assert profile.total_ms == pytest.approx(41.0)
        assert profile.stage_sum() == pytest.approx(profile.total_ms)

    def test_profile_named_from_root_tag(self):
        tracer, root = _traced_check()
        assert profile_of(tracer, root).name == "SP02"
        assert profile_of(tracer, root, name="override").name == "override"

    def test_nested_stage_spans_count_exclusive_time_once(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("refine") as root:
            clock.advance(0.004)
            with tracer.span("normalise"):
                clock.advance(0.006)
        profile = profile_of(tracer, root)
        assert profile.stage_ms("refine") == pytest.approx(4.0)
        assert profile.stage_ms("normalise") == pytest.approx(6.0)
        assert profile.stage_sum() == pytest.approx(10.0)

    def test_untraced_residue_goes_to_other(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("refine"):
            clock.advance(0.002)
        profile = aggregate_spans(tracer.spans, total_ms=10.0)
        assert profile.stage_ms("refine") == pytest.approx(2.0)
        assert profile.stage_ms(OTHER_STAGE) == pytest.approx(8.0)
        assert profile.stage_sum() == pytest.approx(10.0)

    def test_span_counts_per_stage(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("run") as root:
            for _ in range(3):
                with tracer.span("compress", compression="tau"):
                    clock.advance(0.001)
        profile = profile_of(tracer, root, name="run")
        assert profile.counts["compress"] == 3

    def test_metrics_snapshot_attached(self):
        tracer, root = _traced_check()
        tracer.metrics.counter("refine.states_explored").inc(9)
        profile = profile_of(tracer, root)
        assert profile.metrics["refine.states_explored"] == 9


def _full_scan_subtree(spans, root):
    """The reference subtree: a parent index over every recorded span."""
    children = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    collected, stack = [], [root]
    while stack:
        span = stack.pop()
        collected.append(span)
        stack.extend(children.get(span.span_id, ()))
    return collected


class TestSubtreeOfALongLivedTracer:
    def _checks(self):
        """Four sequential checks inside one batch span, then a stray root."""
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        roots = []
        with tracer.span("batch"):
            for step in range(1, 5):
                with tracer.span("check", name="c{}".format(step)) as root:
                    clock.advance(0.0013 * step)
                    with tracer.span("compile"):
                        clock.advance(0.0031 * step)
                        with tracer.span("compress"):
                            clock.advance(0.0007 * step)
                    with tracer.span("refine"):
                        clock.advance(0.0051 * step)
                roots.append(root)
        with tracer.span("check", name="after"):
            clock.advance(0.002)
        return tracer, roots

    def test_middle_root_gets_exactly_its_subtree(self):
        from repro.obs.profile import _subtree

        tracer, roots = self._checks()
        middle = roots[2]
        subtree = _subtree(tracer.spans, middle)
        assert subtree == _full_scan_subtree(tracer.spans, middle)
        assert [span.name for span in subtree] == [
            "check", "refine", "compile", "compress",
        ]

    def test_middle_root_profile_matches_the_full_scan(self):
        tracer, roots = self._checks()
        for root in roots:
            reference = aggregate_spans(
                _full_scan_subtree(tracer.spans, root),
                total_ms=root.duration_ms,
                metrics=tracer.metrics.snapshot(),
                name=root.tags["name"],
            )
            profile = profile_of(tracer, root)
            assert profile.as_dict() == reference.as_dict()
            assert profile.stages == reference.stages
            assert profile.table() == reference.table()


class TestPresentation:
    def test_ordered_stages_canonical_then_extras_then_other(self):
        profile = aggregate_spans([], total_ms=0.0)
        profile.stages = {
            "zeta": 1.0,
            "refine": 2.0,
            OTHER_STAGE: 0.5,
            "parse": 3.0,
            "alpha": 4.0,
        }
        names = [name for name, _ in profile.ordered_stages()]
        assert names == ["parse", "refine", "alpha", "zeta", OTHER_STAGE]
        assert set(STAGE_ORDER).issuperset({"parse", "refine"})

    def test_table_lists_stages_and_total(self):
        tracer, root = _traced_check()
        table = profile_of(tracer, root).table()
        assert table.startswith("profile [SP02]")
        for stage in ("plan", "compile", "normalise", "refine", "total"):
            assert stage in table
        assert "100.0%" in table

    def test_as_dict_shape(self):
        tracer, root = _traced_check()
        data = profile_of(tracer, root).as_dict()
        assert data["name"] == "SP02"
        assert data["total_ms"] == pytest.approx(41.0)
        assert set(data["stages"]) >= {"plan", "compile", "normalise", "refine"}
        assert isinstance(data["spans"], dict)
        assert isinstance(data["metrics"], dict)


class TestOverallProfile:
    def test_covers_every_root(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        for _ in range(2):
            with tracer.span("check"):
                with tracer.span("refine"):
                    clock.advance(0.005)
        profile = overall_profile(tracer)
        assert profile.name == "run"
        assert profile.total_ms == pytest.approx(10.0)
        assert profile.stage_ms("refine") == pytest.approx(10.0)
        assert profile.stage_sum() == pytest.approx(profile.total_ms)
