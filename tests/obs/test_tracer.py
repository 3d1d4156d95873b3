"""Span trees, deterministic identities, streaming."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.exporters import read_event_stream
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer, WALL_CLOCK_FIELDS


def span_by_name(tracer, name):
    return next(
        r for r in tracer.records
        if r["kind"] == "span" and r["name"] == name
    )


class TestDisabledTracer:
    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("work", key=1) as span:
            span.set(more=2)
            span.event("tick")
        NULL_TRACER.event("loose")
        assert NULL_TRACER.records == []

    def test_null_span_is_shared(self):
        assert Tracer().span("a") is Tracer().span("b")


class TestSpanTree:
    def test_nesting_builds_paths_and_parent_links(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner = span_by_name(tracer, "inner")
        assert inner["path"] == "outer/inner"
        assert inner["parent"] == outer.span_id
        assert span_by_name(tracer, "outer")["parent"] is None

    def test_ids_are_path_plus_counter_never_wallclock(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        with tracer.span("a"):
            pass
        ids = [r["id"] for r in tracer.records]
        assert ids == ["a#0", "a#1"]

    def test_durations_are_nonnegative_and_ordered(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner = span_by_name(tracer, "inner")
        outer = span_by_name(tracer, "outer")
        assert inner["dur_us"] >= 0
        assert outer["start_us"] <= inner["start_us"]
        assert outer["dur_us"] >= inner["dur_us"]

    def test_exception_marks_error_status_and_propagates(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        record = span_by_name(tracer, "doomed")
        assert record["status"] == "error"
        assert record["attrs"]["error"] == "ValueError"

    def test_events_attach_to_innermost_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work") as span:
            tracer.event("tick", n=1)
        (event,) = [r for r in tracer.records if r["kind"] == "event"]
        assert event["span"] == span.span_id
        assert event["attrs"] == {"n": 1}

    def test_metrics_histogram_fed_on_close(self):
        registry = MetricsRegistry()
        tracer = Tracer(enabled=True, metrics=registry)
        with tracer.span("work"):
            pass
        assert registry.histogram("trace.span.work.seconds").count == 1


class TestDeterministicShape:
    def _run(self):
        tracer = Tracer(enabled=True)
        with tracer.span("batch", n_jobs=2):
            for name in ("a", "b"):
                with tracer.span("job", workload=name):
                    pass
            tracer.event("done")
        return tracer

    def test_same_work_gives_identical_shape(self):
        assert self._run().shape() == self._run().shape()

    def test_shape_excludes_exactly_the_wallclock_fields(self):
        tracer = self._run()
        for record, skeleton in zip(tracer.records, tracer.shape()):
            kept = {key for key, _ in skeleton}
            assert kept == set(record) - WALL_CLOCK_FIELDS

    def test_different_work_changes_shape(self):
        other = Tracer(enabled=True)
        with other.span("batch", n_jobs=2):
            pass
        assert other.shape() != self._run().shape()


class TestStreaming:
    def test_records_stream_as_they_close(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        tracer = Tracer(enabled=True, stream_path=path)
        with tracer.span("work"):
            pass
        on_disk = read_event_stream(path)
        assert [r["kind"] for r in on_disk] == ["segment-start", "span"]
        assert on_disk == tracer.records

    def test_resumed_stream_appends_a_new_segment(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        first = Tracer(enabled=True, stream_path=path)
        with first.span("work"):
            pass
        first.close()
        second = Tracer(enabled=True, stream_path=path)
        assert second.segment == 1
        with second.span("work"):
            pass
        second.close()
        segments = [
            r["segment"] for r in read_event_stream(path)
            if r["kind"] == "segment-start"
        ]
        assert segments == [0, 1]

    def test_torn_tail_is_dropped_on_read(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        tracer = Tracer(enabled=True, stream_path=path)
        with tracer.span("work"):
            pass
        tracer.close()
        with open(path, "a") as handle:
            handle.write('{"kind": "span", "tru')  # the kill point
        records = read_event_stream(path)
        # segment-start + the finished span + the segment-end seal
        assert len(records) == 3
        assert records[-1]["kind"] == "segment-end"

    def test_unwritable_stream_degrades_to_memory(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("not a directory")
        with pytest.warns(RuntimeWarning, match="unusable"):
            tracer = Tracer(
                enabled=True,
                stream_path=str(blocked / "events.jsonl"),
            )
        with tracer.span("work"):
            pass
        assert span_by_name(tracer, "work") is not None

    def test_stream_lines_are_sorted_json(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        tracer = Tracer(enabled=True, stream_path=path)
        with tracer.span("work", z=1, a=2):
            pass
        tracer.close()
        with open(path) as handle:
            for line in handle:
                parsed = json.loads(line)
                assert line == json.dumps(parsed, sort_keys=True) + "\n"

    def test_directory_is_created_on_demand(self, tmp_path):
        path = str(tmp_path / "deep" / "down" / "events.jsonl")
        tracer = Tracer(enabled=True, stream_path=path)
        tracer.close()
        assert os.path.exists(path)
