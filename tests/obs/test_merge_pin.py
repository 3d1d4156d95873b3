"""Pinned output of campaign trace merging on a fixed board.

The board is written record by record with fixed timestamps, so the
merged records and their Chrome trace are byte-stable: any change to how
shard records are re-identified, linked, placed on tracks or timed shows
up as a changed digest.  The board holds two shards; ``shard-0`` was
killed in its first segment (no seal) and resumed into a second, sealed
one.  The coordinator's own stream holds a span tree with an event.
"""

from __future__ import annotations

import hashlib
import json

from repro.obs.exporters import chrome_trace_document
from repro.obs.merge import merge_campaign_records


def _span(sid, parent, name, path, start, dur, segment, tid=0, **attrs):
    return {
        "kind": "span", "id": sid, "parent": parent, "name": name,
        "path": path, "start_us": start, "dur_us": dur, "tid": tid,
        "segment": segment, "status": "ok", "attrs": attrs,
    }


def _event(eid, span, name, path, ts, segment, tid=0, **attrs):
    return {
        "kind": "event", "id": eid, "span": span, "name": name,
        "path": path, "ts_us": ts, "tid": tid, "segment": segment,
        "attrs": attrs,
    }


def _segment(records, segment, sealed):
    """JSONL lines of one tracer segment, sealed like ``Tracer.close``."""
    body = [{"kind": "segment-start", "schema": 1, "segment": segment}]
    body += records
    lines = [json.dumps(r, sort_keys=True) + "\n" for r in body]
    if sealed:
        sha = hashlib.sha1("".join(lines).encode("utf-8"))
        lines.append(
            json.dumps(
                {"kind": "segment-end", "segment": segment,
                 "records": len(lines), "sha1": sha.hexdigest()},
                sort_keys=True,
            ) + "\n"
        )
    return "".join(lines)


def _board(tmp_path):
    board = tmp_path / "board"
    (board / "obs" / "shard-0").mkdir(parents=True)
    (board / "obs" / "shard-1").mkdir(parents=True)
    (board / "board.json").write_text("{}\n")
    # shard-0, segment 0: killed mid-job, so the job span never closed;
    # the orphaned step and event link to it by an id that is not there.
    killed = [
        _span("campaign-worker/sim-job/step#2", "campaign-worker/sim-job#1",
              "step", "campaign-worker/sim-job/step", 12.5, 3.25, 0, tid=2),
        _event("campaign-worker/sim-job/job-retry#3",
               "campaign-worker/sim-job#1", "job-retry",
               "campaign-worker/sim-job/job-retry", 16.0, 0, tid=2,
               attempt=1),
    ]
    # shard-0, segment 1: the resumed worker, sealed; children close
    # before their parents.
    resumed = [
        _span("campaign-worker/sim-job/cache-put#2",
              "campaign-worker/sim-job#1", "cache-put",
              "campaign-worker/sim-job/cache-put", 40.0, 2.0, 1, tid=1),
        _event("campaign-worker/sim-job/job-done#3",
               "campaign-worker/sim-job#1", "job-done",
               "campaign-worker/sim-job/job-done", 43.5, 1, tid=1),
        _span("campaign-worker/sim-job#1", "campaign-worker#0", "sim-job",
              "campaign-worker/sim-job", 30.0, 15.0, 1, tid=1,
              kind="job", workload="w1"),
        _span("campaign-worker#0", None, "campaign-worker",
              "campaign-worker", 5.0, 50.0, 1, kind="campaign",
              owner="shard-0"),
    ]
    # shard-1: one sealed segment; one record predates the tid field.
    other = [
        _span("campaign-worker/sim-job#1", "campaign-worker#0", "sim-job",
              "campaign-worker/sim-job", 8.0, 6.0, 0, tid=4, kind="job"),
        _span("campaign-worker#0", None, "campaign-worker",
              "campaign-worker", 1.0, 20.0, 0, kind="campaign",
              owner="shard-1"),
    ]
    del other[1]["tid"]
    (board / "obs" / "shard-0" / "events.jsonl").write_text(
        _segment(killed, 0, sealed=False) + _segment(resumed, 1, sealed=True)
    )
    (board / "obs" / "shard-1" / "events.jsonl").write_text(
        _segment(other, 0, sealed=True)
    )
    coordinator = [
        _event("campaign/shard-lost#2", "campaign#0", "shard-lost",
               "campaign/shard-lost", 70.0, 0, owner="shard-0"),
        _span("campaign/collate#1", "campaign#0", "collate",
              "campaign/collate", 60.0, 30.0, 0, kind="campaign"),
        _span("campaign#0", None, "campaign", "campaign", 0.0, 100.0, 0,
              kind="campaign", shards=2),
    ]
    (board / "events.jsonl").write_text(
        _segment(coordinator, 0, sealed=True)
    )
    return str(board)


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_merged_campaign_trace_is_pinned(tmp_path):
    records, names = merge_campaign_records(_board(tmp_path))
    assert names == {
        1: "campaign shard-0", 2: "campaign shard-0 segment 1",
        3: "campaign shard-1",
    }
    links = [
        (r.get("id"), r.get("parent", r.get("span")), r.get("segment"),
         r.get("tid"))
        for r in records
    ]
    assert _sha(links) == (
        "e2de0062b29b018ffffd78ce1c12bba90d9ae94b78d9ff8e87f8b920ab59b988"
    )
    assert _sha(chrome_trace_document(records, names)) == (
        "b9d0e48e703842b0c358bf631c6086be523ef98a710293f326cb7551bac1a1d0"
    )
