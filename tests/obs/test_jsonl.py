"""JSONL export/load round-trip and the trace-file schema validator."""

import io
import json

import pytest

from repro.obs.schema import SchemaError, validate_lines
from repro.obs.trace import (
    TRACE_FORMAT_VERSION,
    Tracer,
    export_jsonl,
    iter_records,
    load_jsonl,
)
from tests.obs.test_trace import FakeClock


def _recorded_tracer() -> Tracer:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("run", tool="test"):
        clock.advance(0.001)
        with tracer.span("check", name="SP02"):
            clock.advance(0.002)
            with tracer.span("refine", model="T"):
                clock.advance(0.005)
    tracer.metrics.counter("refine.states_explored").inc(17)
    tracer.metrics.gauge("refine.peak_frontier").set_max(4)
    tracer.metrics.histogram("case_ms").observe(1.5)
    return tracer


class TestRoundTrip:
    def test_export_then_load_preserves_spans(self, tmp_path):
        tracer = _recorded_tracer()
        path = tmp_path / "trace.jsonl"
        count = export_jsonl(tracer, str(path))
        # meta + 3 spans + 3 metric records
        assert count == 7
        dump = load_jsonl(str(path))
        assert dump.meta["version"] == TRACE_FORMAT_VERSION
        assert dump.meta["spans"] == 3
        assert [span.name for span in dump.spans] == ["run", "check", "refine"]
        by_name = {span.name: span for span in dump.spans}
        assert by_name["check"].parent_id == by_name["run"].span_id
        assert by_name["refine"].parent_id == by_name["check"].span_id
        assert by_name["check"].tags == {"name": "SP02"}
        assert by_name["refine"].duration_ms == pytest.approx(5.0)

    def test_round_trip_preserves_metric_records(self):
        tracer = _recorded_tracer()
        buffer = io.StringIO()
        export_jsonl(tracer, buffer)
        buffer.seek(0)
        dump = load_jsonl(buffer)
        kinds = sorted(record["type"] for record in dump.metrics)
        assert kinds == ["counter", "gauge", "histogram"]
        counter = next(r for r in dump.metrics if r["type"] == "counter")
        assert counter["name"] == "refine.states_explored"
        assert counter["value"] == 17

    def test_meta_record_comes_first(self):
        tracer = _recorded_tracer()
        records = list(iter_records(tracer))
        assert records[0]["type"] == "meta"
        assert all(r["type"] != "meta" for r in records[1:])

    def test_exported_file_validates(self, tmp_path):
        tracer = _recorded_tracer()
        path = tmp_path / "trace.jsonl"
        export_jsonl(tracer, str(path))
        counts = validate_lines(path.read_text().splitlines())
        assert counts == {
            "meta": 1,
            "span": 3,
            "counter": 1,
            "gauge": 1,
            "histogram": 1,
        }


def _lines(*records: dict) -> list:
    return [json.dumps(record) for record in records]


META = {"type": "meta", "version": 1, "spans": 1}
SPAN = {
    "type": "span",
    "id": 1,
    "parent": None,
    "name": "run",
    "start_ms": 0.0,
    "end_ms": 2.0,
    "tags": {},
}


class TestSchemaRejections:
    def test_missing_meta(self):
        with pytest.raises(SchemaError, match="no meta record"):
            validate_lines(_lines(SPAN))

    def test_meta_not_first(self):
        with pytest.raises(SchemaError, match="meta record must come first"):
            validate_lines(_lines(SPAN, META))

    def test_second_meta(self):
        with pytest.raises(SchemaError, match="second meta record"):
            validate_lines(_lines(META, META))

    def test_duplicate_span_id(self):
        meta = dict(META, spans=2)
        with pytest.raises(SchemaError, match="duplicate span id 1"):
            validate_lines(_lines(meta, SPAN, SPAN))

    def test_parent_must_precede_child(self):
        child = dict(SPAN, id=2, parent=9)
        meta = dict(META, spans=2)
        with pytest.raises(SchemaError, match="unseen parent 9"):
            validate_lines(_lines(meta, SPAN, child))

    def test_end_before_start(self):
        backwards = dict(SPAN, start_ms=5.0, end_ms=1.0)
        with pytest.raises(SchemaError, match="ends .* before it starts"):
            validate_lines(_lines(META, backwards))

    def test_unknown_record_type(self):
        with pytest.raises(SchemaError, match="unknown record type 'blob'"):
            validate_lines(_lines(META, {"type": "blob"}))

    def test_span_count_mismatch(self):
        meta = dict(META, spans=5)
        with pytest.raises(SchemaError, match="declares 5 spans, file has 1"):
            validate_lines(_lines(meta, SPAN))

    def test_bool_rejected_where_number_expected(self):
        bad = dict(SPAN, start_ms=True)
        with pytest.raises(SchemaError, match="'start_ms' must be a number"):
            validate_lines(_lines(META, bad))

    def test_invalid_json_line(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            validate_lines([json.dumps(META), "{not json"])

    def test_open_span_allowed(self):
        open_span = dict(SPAN, end_ms=None)
        counts = validate_lines(_lines(META, open_span))
        assert counts["span"] == 1

    def test_blank_lines_skipped(self):
        counts = validate_lines(_lines(META) + ["", "  "] + _lines(SPAN))
        assert counts["span"] == 1
