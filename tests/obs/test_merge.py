"""Campaign stitching: seal verification, shard tracks, metric merging."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.exporters import (
    chrome_trace_document,
    prometheus_snapshot,
    validate_chrome_trace,
)
from repro.obs.merge import (
    autotune_hint,
    campaign_health,
    export_campaign_trace,
    is_campaign_dir,
    load_trace_records,
    merge_board_metrics,
    merge_campaign_records,
    merge_snapshots,
    read_shard_stream,
    registry_from_snapshot,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


def _write_stream(path, span_names, close=True):
    tracer = Tracer(enabled=True, stream_path=str(path))
    for name in span_names:
        with tracer.span(name):
            pass
    if close:
        tracer.close()
    return tracer


def _fake_board(tmp_path, shards=("shard-0", "shard-1")):
    board = tmp_path / "board"
    board.mkdir()
    (board / "board.json").write_text("{}\n")
    for owner in shards:
        obs = board / "obs" / owner
        obs.mkdir(parents=True)
        _write_stream(obs / "events.jsonl", [f"job-{owner}"])
    return str(board)


class TestSealVerification:
    def test_sealed_segment_reads_clean(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_stream(path, ["work"])
        records, problems = read_shard_stream(str(path))
        assert problems == []
        assert [r["kind"] for r in records] == ["segment-start", "span"]
        # The seal itself is consumed by verification, not returned.
        assert all(r["kind"] != "segment-end" for r in records)

    def test_unsealed_tail_kept_best_effort(self, tmp_path):
        # SIGKILL before close(): no seal, records survive with a note.
        path = tmp_path / "events.jsonl"
        _write_stream(path, ["work"], close=False)
        records, problems = read_shard_stream(str(path))
        assert [r["kind"] for r in records] == ["segment-start", "span"]
        assert len(problems) == 1
        assert "no seal" in problems[0]

    def test_tampered_segment_is_dropped_whole(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_stream(path, ["work"])
        lines = path.read_text().splitlines()
        span = json.loads(lines[1])
        span["name"] = "forged"
        lines[1] = json.dumps(span, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        records, problems = read_shard_stream(str(path))
        assert records == []
        assert "failed its seal" in problems[0]

    def test_killed_then_resumed_writer_isolates_segments(self, tmp_path):
        # Segment 0 dies unsealed; segment 1 seals cleanly.  The unsealed
        # prefix must not pollute segment 1's checksum.
        path = tmp_path / "events.jsonl"
        _write_stream(path, ["first"], close=False)
        _write_stream(path, ["second"])
        records, problems = read_shard_stream(str(path))
        names = [r["name"] for r in records if r["kind"] == "span"]
        assert names == ["first", "second"]  # both kept, stream order
        assert len(problems) == 1 and "segment 0" in problems[0]

    def test_missing_stream(self, tmp_path):
        path = str(tmp_path / "nope.jsonl")
        assert read_shard_stream(path) == ([], [])
        with pytest.raises(FileNotFoundError):
            read_shard_stream(path, missing_ok=False)


class TestMergeCampaignRecords:
    def test_each_shard_gets_its_own_track(self, tmp_path):
        board = _fake_board(tmp_path)
        records, names = merge_campaign_records(board)
        assert sorted(names.values()) == [
            "campaign shard-0", "campaign shard-1",
        ]
        by_pid = {}
        for record in records:
            if record["kind"] == "span":
                by_pid.setdefault(record["segment"], set()).add(
                    record["name"]
                )
        assert by_pid == {0: {"job-shard-0"}, 1: {"job-shard-1"}}

    def test_coordinator_keeps_its_segments_below_shard_tracks(
        self, tmp_path
    ):
        board = _fake_board(tmp_path)
        coordinator = Tracer(enabled=True)
        with coordinator.span("campaign"):
            pass
        records, names = merge_campaign_records(
            board, coordinator_records=list(coordinator.records)
        )
        campaign_span = next(
            r for r in records if r.get("name") == "campaign"
        )
        assert campaign_span["segment"] == 0
        assert set(names) == {1, 2}  # shard tracks start above

    def test_merged_document_validates_with_named_tracks(self, tmp_path):
        board = _fake_board(tmp_path)
        records, names = merge_campaign_records(board)
        document = chrome_trace_document(records, process_names=names)
        validate_chrome_trace(document)
        meta = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e.get("ph") == "M"
        }
        assert meta == {"campaign shard-0", "campaign shard-1"}

    def _nested_board(self, tmp_path):
        """Two shards whose tracers produced the same ids."""
        board = tmp_path / "board"
        board.mkdir()
        (board / "board.json").write_text("{}\n")
        streams = {}
        for owner in ("shard-0", "shard-1"):
            obs = board / "obs" / owner
            obs.mkdir(parents=True)
            worker = Tracer(enabled=True, stream_path=str(obs / "events.jsonl"))
            with worker.span("sim-job", workload=owner):
                with worker.span("cache-put"):
                    pass
                worker.event("tick")
            worker.close()
            streams[owner], _ = read_shard_stream(
                str(obs / "events.jsonl")
            )
        return str(board), streams

    def test_shard_records_are_reidentified_and_relinked(self, tmp_path):
        board, _ = self._nested_board(tmp_path)
        records, _ = merge_campaign_records(board)
        ids = [r["id"] for r in records]
        assert len(ids) == len(set(ids)) == 6
        for segment in (0, 1):
            track = [r for r in records if r["segment"] == segment]
            job = next(r for r in track if r.get("name") == "sim-job")
            put = next(r for r in track if r.get("name") == "cache-put")
            tick = next(r for r in track if r["kind"] == "event")
            assert job["parent"] is None
            assert put["parent"] == job["id"]
            assert tick["span"] == job["id"]

    def test_shard_timestamps_are_kept(self, tmp_path):
        board, streams = self._nested_board(tmp_path)
        records, names = merge_campaign_records(board)
        for pid, name in names.items():
            owner = name.split()[-1]
            originals = [
                r for r in streams[owner] if r["kind"] in ("span", "event")
            ]
            merged = [r for r in records if r["segment"] == pid]
            assert [r.get("start_us", r.get("ts_us")) for r in merged] == [
                r.get("start_us", r.get("ts_us")) for r in originals
            ]

    def test_merge_is_a_pure_function_of_the_streams(self, tmp_path):
        # Re-merging after a coordinator restart must be byte-identical.
        board = _fake_board(tmp_path)
        first = merge_campaign_records(board)
        second = merge_campaign_records(board)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_load_trace_records_detects_campaign_dirs(self, tmp_path):
        board = _fake_board(tmp_path)
        assert is_campaign_dir(board)
        records, names = load_trace_records(board)
        assert names is not None and len(names) == 2
        plain = tmp_path / "plain"
        plain.mkdir()
        _write_stream(plain / "events.jsonl", ["solo"])
        records, names = load_trace_records(str(plain))
        assert names is None
        assert [r["name"] for r in records if r["kind"] == "span"] == [
            "solo"
        ]


class TestSnapshotRoundTrip:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("sim.campaign.jobs_done").inc(4)
        registry.gauge("sim.campaign.workers").set(2)
        hist = registry.histogram(
            "sim.campaign.job.seconds", buckets=(0.1, 1.0)
        )
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        return registry

    def test_snapshot_round_trips_exactly(self):
        registry = self._registry()
        rebuilt = registry_from_snapshot(registry.snapshot())
        assert rebuilt.snapshot() == registry.snapshot()

    def test_empty_histogram_round_trips(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,))
        rebuilt = registry_from_snapshot(registry.snapshot())
        assert rebuilt.snapshot() == registry.snapshot()

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError, match="unknown type"):
            registry_from_snapshot({"x": {"type": "summary"}})


class TestMergeConflictSemantics:
    def test_counters_add_gauges_last_write_histograms_bucketwise(self):
        a = MetricsRegistry()
        a.counter("done").inc(2)
        a.gauge("workers").set(1)
        a.histogram("lat", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.counter("done").inc(3)
        b.gauge("workers").set(4)
        b.histogram("lat", buckets=(1.0,)).observe(2.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged.value("done") == 5
        assert merged.value("workers") == 4  # last write wins
        hist = merged.histogram("lat")
        assert hist.count == 2
        assert hist.bucket_counts == [1, 1]

    def test_kind_conflict_raises_type_error(self):
        a = MetricsRegistry()
        a.counter("x").inc(1)
        b = MetricsRegistry()
        b.gauge("x").set(1)
        with pytest.raises(TypeError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_bucket_conflict_raises_value_error(self):
        a = MetricsRegistry()
        a.histogram("lat", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("lat", buckets=(2.0, 4.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket mismatch"):
            merge_snapshots([a.snapshot(), b.snapshot()])


class TestPrometheusLabels:
    def test_unlabelled_output_is_unchanged(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(1)
        assert prometheus_snapshot(registry) == prometheus_snapshot(
            registry, labels=None
        )
        assert "repro_jobs 1" in prometheus_snapshot(registry)

    def test_labels_attach_to_every_sample(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(1)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = prometheus_snapshot(registry, labels={"shard": "s0"})
        assert 'repro_jobs{shard="s0"} 1' in text
        assert 'repro_lat_bucket{shard="s0",le="1.0"} 1' in text
        assert 'repro_lat_sum{shard="s0"} 0.5' in text

    def test_label_values_escape_exposition_metachars(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(1)
        text = prometheus_snapshot(
            registry, labels={"shard": 'we"ird\\path\nname'}
        )
        assert (
            'repro_jobs{shard="we\\"ird\\\\path\\nname"} 1' in text
        )
        # The document itself stays one sample per line.
        assert len(text.splitlines()) == 2


class TestHealthAndHint:
    def test_campaign_health_derives_the_three_signals(self):
        merged = MetricsRegistry()
        merged.counter("sim.campaign.jobs_claimed").inc(8)
        merged.counter("sim.campaign.leases_stolen").inc(2)
        merged.histogram(
            "sim.campaign.board.flock_wait.seconds", buckets=(0.1,)
        ).observe(0.5)
        merged.histogram(
            "sim.campaign.job.seconds", buckets=(1.0,)
        ).observe(2.0)
        health = campaign_health(merged, {"s0": 6, "s1": 2})
        assert health["steal_rate"] == 0.25
        assert health["straggler_skew"] == 1.5  # 6 / mean(6, 2)
        assert health["contention_index"] == 0.25
        assert health["jobs_claimed"] == 8

    def test_empty_registry_degrades_to_null_signals(self):
        health = campaign_health(MetricsRegistry())
        assert health["steal_rate"] == 0.0
        assert health["straggler_skew"] is None
        assert health["contention_index"] is None

    def test_hint_more_shards_than_jobs(self):
        hint = autotune_hint(8, 3, 0.0)
        assert hint["suggested_shards"] == 3
        assert "idle" in hint["reason"]

    def test_hint_high_steal_rate_halves_shards(self):
        hint = autotune_hint(8, 100, 0.5)
        assert hint["suggested_shards"] == 4
        assert "steal rate" in hint["reason"]

    def test_hint_high_contention_halves_shards(self):
        hint = autotune_hint(4, 100, 0.0, contention_index=0.6)
        assert hint["suggested_shards"] == 2
        assert "contention" in hint["reason"]

    def test_hint_well_matched(self):
        hint = autotune_hint(2, 100, 0.0, contention_index=0.01)
        assert hint["suggested_shards"] == 2


class TestExportCampaignTrace:
    def test_exports_validate_and_are_reproducible(self, tmp_path):
        board = _fake_board(tmp_path)
        snapshot = MetricsRegistry()
        snapshot.counter("sim.campaign.jobs_done").inc(2)
        obs = os.path.join(board, "obs", "shard-0")
        with open(os.path.join(obs, "metrics.json"), "w") as handle:
            json.dump(snapshot.snapshot(), handle, sort_keys=True)
        paths = export_campaign_trace(board)
        with open(paths["chrome"]) as handle:
            validate_chrome_trace(json.load(handle))
        with open(paths["metrics"]) as handle:
            prom = handle.read()
        assert "repro_sim_campaign_jobs_done 2" in prom
        first = open(paths["chrome"]).read()
        export_campaign_trace(board)
        assert open(paths["chrome"]).read() == first

    def test_merged_board_metrics_sums_shards(self, tmp_path):
        board = _fake_board(tmp_path)
        for owner, done in (("shard-0", 3), ("shard-1", 5)):
            registry = MetricsRegistry()
            registry.counter("sim.campaign.jobs_done").inc(done)
            path = os.path.join(board, "obs", owner, "metrics.json")
            with open(path, "w") as handle:
                json.dump(registry.snapshot(), handle, sort_keys=True)
        merged = merge_board_metrics(board)
        assert merged.value("sim.campaign.jobs_done") == 8
