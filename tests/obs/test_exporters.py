"""Chrome trace export + validation, Prometheus snapshot, span analysis."""

from __future__ import annotations

import json

import pytest

from repro.obs.exporters import (
    chrome_trace_document,
    prometheus_snapshot,
    read_event_stream,
    slowest_spans,
    summarize_spans,
    validate_chrome_trace,
    write_chrome_trace,
    write_prometheus_snapshot,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


@pytest.fixture
def traced():
    tracer = Tracer(enabled=True)
    with tracer.span("batch", kind="executor"):
        with tracer.span("job", kind="job", workload="w1"):
            pass
        tracer.event("retry", attempt=1)
    return tracer


class TestChromeTrace:
    def test_document_is_valid_and_complete(self, traced):
        document = chrome_trace_document(traced.records)
        count = validate_chrome_trace(document)
        assert count == len(document["traceEvents"])
        phases = sorted(e["ph"] for e in document["traceEvents"])
        assert phases == ["M", "X", "X", "i"]

    def test_span_events_carry_args_and_category(self, traced):
        document = chrome_trace_document(traced.records)
        job = next(
            e for e in document["traceEvents"] if e["name"] == "job"
        )
        assert job["cat"] == "job"
        assert job["args"]["workload"] == "w1"
        assert job["args"]["path"] == "batch/job"

    def test_segments_become_pids_with_metadata(self):
        records = [
            {"kind": "span", "id": "a#0", "parent": None, "name": "a",
             "path": "a", "start_us": 0.0, "dur_us": 1.0, "tid": 0,
             "segment": s, "status": "ok", "attrs": {}}
            for s in (0, 1)
        ]
        document = chrome_trace_document(records)
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert [m["pid"] for m in metadata] == [0, 1]
        assert all(m["name"] == "process_name" for m in metadata)

    def test_negative_duration_is_clamped(self):
        record = {"kind": "span", "id": "a#0", "parent": None, "name": "a",
                  "path": "a", "start_us": 5.0, "dur_us": -1.0, "tid": 0,
                  "segment": 0, "status": "ok", "attrs": {}}
        document = chrome_trace_document([record])
        validate_chrome_trace(document)

    def test_write_is_loadable_json(self, traced, tmp_path):
        path = str(tmp_path / "trace.chrome.json")
        n_events = write_chrome_trace(traced.records, path)
        with open(path) as handle:
            document = json.load(handle)
        assert validate_chrome_trace(document) == n_events
        assert document["displayTimeUnit"] == "ms"


class TestValidateChromeTrace:
    @pytest.mark.parametrize(
        "document, match",
        [
            ([], "JSON object"),
            ({}, "traceEvents"),
            ({"traceEvents": [{}]}, "missing"),
            ({"traceEvents": [{"name": "a", "ph": "Z", "pid": 0, "tid": 0}]},
             "not a known phase"),
            ({"traceEvents": [
                {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": "soon",
                 "dur": 1}]},
             "not a number"),
            ({"traceEvents": [
                {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 0,
                 "dur": -1}]},
             "negative"),
        ],
        ids=["not-dict", "no-events", "missing-keys", "bad-phase",
             "bad-ts", "negative-dur"],
    )
    def test_structural_violations_raise(self, document, match):
        with pytest.raises(ValueError, match=match):
            validate_chrome_trace(document)


class TestPrometheus:
    def test_counter_gauge_and_histogram_exposition(self):
        registry = MetricsRegistry()
        registry.counter("sim.executor.jobs_run").inc(3)
        registry.gauge("sim.campaign.shards").set(4)
        registry.histogram("trace.span.job.seconds", buckets=(1.0,)).observe(0.5)
        text = prometheus_snapshot(registry)
        assert "# TYPE repro_sim_executor_jobs_run counter" in text
        assert "repro_sim_executor_jobs_run 3" in text
        assert "# TYPE repro_sim_campaign_shards gauge" in text
        assert "# TYPE repro_trace_span_job_seconds histogram" in text
        assert 'repro_trace_span_job_seconds_bucket{le="1.0"} 1' in text
        assert 'repro_trace_span_job_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_trace_span_job_seconds_count 1" in text
        assert text.endswith("\n")

    def test_write_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        path = str(tmp_path / "metrics.prom")
        write_prometheus_snapshot(registry, path)
        with open(path) as handle:
            assert "repro_a 1" in handle.read()


class TestStreamReader:
    def test_missing_stream(self, tmp_path):
        path = str(tmp_path / "absent.jsonl")
        assert read_event_stream(path, missing_ok=True) == []
        with pytest.raises(FileNotFoundError):
            read_event_stream(path)

    def test_non_record_line_ends_the_trusted_prefix(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"kind": "segment-start", "segment": 0}\n'
            '["not", "a", "record"]\n'
            '{"kind": "span"}\n'
        )
        records = read_event_stream(str(path))
        assert len(records) == 1


class TestSpanAnalysis:
    def _records(self):
        def span(name, dur_ms):
            return {"kind": "span", "id": f"{name}#0", "parent": None,
                    "name": name, "path": name, "start_us": 0.0,
                    "dur_us": dur_ms * 1000.0, "tid": 0, "segment": 0,
                    "status": "ok", "attrs": {}}

        return [span("a", 5.0), span("a", 1.0), span("b", 10.0)]

    def test_summary_aggregates_and_sorts_by_total(self):
        summary = summarize_spans(self._records())
        assert [e["name"] for e in summary] == ["b", "a"]
        a = summary[1]
        assert a["count"] == 2
        assert a["total_ms"] == pytest.approx(6.0)
        assert a["mean_ms"] == pytest.approx(3.0)
        assert a["max_ms"] == pytest.approx(5.0)

    def test_slowest_spans_orders_by_duration(self):
        slowest = slowest_spans(self._records(), top=2)
        assert [s["name"] for s in slowest] == ["b", "a"]
        assert slowest[0]["dur_us"] == 10_000.0
