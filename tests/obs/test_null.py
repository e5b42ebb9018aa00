"""The disabled path: null tracer and null metrics are shared no-ops."""

from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_METRICS,
)
from repro.obs.trace import NULL_SPAN, NULL_TRACER, NullTracer, Tracer


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_span_returns_the_shared_null_span(self):
        assert NULL_TRACER.span("check") is NULL_SPAN
        assert NULL_TRACER.span("refine", states=7) is NULL_SPAN

    def test_null_span_is_its_own_context_manager(self):
        with NULL_TRACER.span("check") as span:
            assert span is NULL_SPAN
            span.set_tag("ignored", 1)
        assert span.tags == {}

    def test_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("run"):
            with tracer.span("check"):
                pass
        assert len(tracer) == 0
        assert tracer.roots() == []

    def test_metrics_is_the_shared_null_registry(self):
        assert NULL_TRACER.metrics is NULL_METRICS


class TestNullMetricsCounterIdentity:
    def test_every_counter_name_yields_the_identical_instrument(self):
        a = NULL_METRICS.counter("refine.states_explored")
        b = NULL_METRICS.counter("cache.lts_hits")
        assert a is b is NULL_COUNTER

    def test_every_gauge_name_yields_the_identical_instrument(self):
        assert (
            NULL_METRICS.gauge("x") is NULL_METRICS.gauge("y") is NULL_GAUGE
        )

    def test_every_histogram_name_yields_the_identical_instrument(self):
        assert (
            NULL_METRICS.histogram("x")
            is NULL_METRICS.histogram("y")
            is NULL_HISTOGRAM
        )

    def test_mutation_goes_nowhere(self):
        NULL_METRICS.counter("c").inc(100)
        NULL_METRICS.gauge("g").set(5)
        NULL_METRICS.gauge("g").set_max(9)
        NULL_METRICS.histogram("h").observe(3)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0 and NULL_GAUGE.max_value == 0
        assert NULL_HISTOGRAM.count == 0
        assert len(NULL_METRICS) == 0
        assert NULL_METRICS.snapshot() == {}
        assert NULL_METRICS.records() == []


class TestDisabledPipelineStaysClean:
    def test_pipeline_without_obs_attaches_no_profile(self):
        from repro.cspm.evaluator import load
        from repro.cspm.prelude import SP02_SCRIPT

        model = load(SP02_SCRIPT)
        (result,) = model.check_assertions()
        assert result.profile is None

    def test_pipeline_without_obs_records_no_spans(self):
        from repro.cspm.evaluator import load
        from repro.cspm.prelude import SP02_SCRIPT
        from repro.engine.pipeline import VerificationPipeline

        model = load(SP02_SCRIPT)
        pipeline = VerificationPipeline(model.env)
        model.check_assertions(pipeline=pipeline)
        assert pipeline.obs is NULL_TRACER
        assert len(NULL_TRACER) == 0
