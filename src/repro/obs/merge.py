"""Campaign-scale stitching: shard trace segments and metric snapshots.

A distributed campaign (:mod:`repro.sim.campaign`) runs shard workers in
their own processes; each worker streams checksummed JSONL trace segments
into ``<board_dir>/obs/<owner>/events.jsonl`` and leaves a JSON metrics
snapshot beside it.  This module is the coordinator-side read path:

* :func:`read_shard_stream` — a seal-verifying stream reader.  Every
  cleanly-closed tracer segment ends with a ``segment-end`` record
  carrying the segment's line count and SHA-1; a verified segment's
  records are trusted, a mismatching one is dropped whole, and an
  unsealed tail (the shard was SIGKILLed mid-segment) is kept
  best-effort with any torn final line already dropped by
  :func:`~repro.obs.exporters.read_event_stream`.
* :func:`merge_campaign_records` — stitches every shard stream into one
  campaign-wide record list, re-identifying shard records under one
  counter and giving each (shard, segment) its own Chrome process track.
* :func:`merge_snapshots` / :func:`registry_from_snapshot` — rebuild and
  combine per-shard :class:`MetricsRegistry` snapshots (counters add,
  gauges last-write in shard order, histograms merge bucket-wise).
* :func:`campaign_health` / :func:`autotune_hint` — derived health
  metrics (steal rate, straggler skew, board contention index) and the
  structured shard-count hint they feed.

Merging is a *pure function* of the on-disk artifacts: nothing here
writes into a live tracer's stream, so re-exporting a campaign trace —
including after a coordinator kill+resume — is deterministic and
byte-identical for the same set of shard streams.

This module deliberately imports nothing from :mod:`repro.sim`: the
campaign layer calls down into it, never the reverse.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable

from repro.obs.exporters import (
    CHROME_FILE,
    EVENTS_FILE,
    METRICS_FILE,
    read_event_stream,
    write_chrome_trace,
    write_prometheus_snapshot,
)
from repro.obs.metrics import MetricsRegistry

#: Per-board observability directory (shard streams + metric snapshots).
OBS_DIR = "obs"

#: Per-shard metrics snapshot file inside ``obs/<owner>/``.
SNAPSHOT_FILE = "metrics.json"

#: The board manifest whose presence marks a campaign directory.
BOARD_MANIFEST = "board.json"


# ------------------------------------------------------------------ streams
def read_shard_stream(
    path: str, missing_ok: bool = True
) -> tuple[list[dict], list[str]]:
    """Read one shard's JSONL stream, verifying ``segment-end`` seals.

    Returns ``(records, problems)`` where ``records`` excludes the seal
    records themselves and ``problems`` describes anything dropped or
    unverified.  Semantics per segment:

    * sealed and matching — records kept, trusted;
    * sealed but count/checksum mismatch — the whole segment is dropped
      (its content cannot be trusted);
    * unsealed (the writer died before :meth:`Tracer.close`) — records
      kept best-effort, noted as unsealed.
    """
    raw = read_event_stream(path, missing_ok=missing_ok)
    records: list[dict] = []
    problems: list[str] = []
    pending: list[dict] = []
    sha = hashlib.sha1()
    count = 0

    def _reset() -> None:
        nonlocal pending, sha, count
        pending = []
        sha = hashlib.sha1()
        count = 0

    def _flush_unsealed() -> None:
        if pending:
            problems.append(
                f"{path}: segment "
                f"{pending[0].get('segment', 0)} has no seal "
                f"({len(pending)} records kept best-effort)"
            )
            records.extend(pending)
        _reset()

    for record in raw:
        kind = record.get("kind")
        if kind == "segment-start" and pending:
            # A new segment began without the previous one sealing: the
            # earlier writer was killed mid-segment.
            _flush_unsealed()
        if kind == "segment-end":
            ok = (
                record.get("records") == count
                and record.get("sha1") == sha.hexdigest()
            )
            if ok:
                records.extend(pending)
            else:
                problems.append(
                    f"{path}: segment {record.get('segment', 0)} failed "
                    f"its seal ({len(pending)} records dropped)"
                )
            _reset()
            continue
        line = json.dumps(record, sort_keys=True) + "\n"
        sha.update(line.encode("utf-8"))
        count += 1
        pending.append(record)
    _flush_unsealed()
    return records, problems


def is_campaign_dir(directory: str) -> bool:
    """Whether ``directory`` is a campaign board (vs a plain trace dir)."""
    return os.path.isfile(os.path.join(directory, BOARD_MANIFEST))


def shard_streams(board_dir: str) -> list[tuple[str, str]]:
    """``(owner, stream path)`` for every shard stream under ``obs/``."""
    obs = os.path.join(board_dir, OBS_DIR)
    try:
        owners = sorted(os.listdir(obs))
    except (FileNotFoundError, NotADirectoryError):
        return []
    out = []
    for owner in owners:
        path = os.path.join(obs, owner, EVENTS_FILE)
        if os.path.isfile(path):
            out.append((owner, path))
    return out


def merge_campaign_records(
    board_dir: str,
    coordinator_records: list[dict] | None = None,
) -> tuple[list[dict], dict[int, str]]:
    """Stitch coordinator + shard streams into one campaign-wide trace.

    Coordinator records (read from ``<board_dir>/events.jsonl`` unless
    passed in) keep their own segments as Chrome ``pid`` lanes; each
    shard (owner, segment) pair goes onto the next free ``pid`` so every
    shard renders as its own process track.  Shard records are
    re-identified as ``"<path>#<n>"`` under one running counter (shard
    ids repeat across shards and segments), and their parent and span
    links follow; a link to a record outside the segment (a span a killed
    shard never closed) becomes ``None``.  Timestamps and ``tid`` are
    kept.  Returns ``(records, process_names)`` where ``process_names``
    labels the shard tracks for
    :func:`~repro.obs.exporters.chrome_trace_document`.
    """
    if coordinator_records is None:
        coordinator_records, _ = read_shard_stream(
            os.path.join(board_dir, EVENTS_FILE), missing_ok=True
        )
    coordinator_records = [
        r for r in coordinator_records if r.get("kind") != "segment-end"
    ]
    pid = 1 + max(
        (int(r.get("segment", 0)) for r in coordinator_records), default=-1
    )
    merged: list[dict] = []
    names: dict[int, str] = {}
    seq = 0
    for owner, path in shard_streams(board_dir):
        shard_records, _ = read_shard_stream(path, missing_ok=True)
        shard_records = [
            r for r in shard_records if r.get("kind") in ("span", "event")
        ]
        segments = sorted(
            {int(r.get("segment", 0)) for r in shard_records}
        )
        for segment in segments:
            # Two passes: children close (and record) before their
            # parents, so every new id must exist before links follow.
            renamed: list[dict] = []
            new_ids: dict[str, str] = {}
            for record in shard_records:
                if int(record.get("segment", 0)) != segment:
                    continue
                new_ids[record["id"]] = f"{record['path']}#{seq}"
                seq += 1
                renamed.append(
                    dict(
                        record,
                        id=new_ids[record["id"]],
                        tid=int(record.get("tid", 0)),
                        segment=pid,
                    )
                )
            for record in renamed:
                link = "parent" if record["kind"] == "span" else "span"
                record[link] = new_ids.get(record.get(link))
            merged += renamed
            names[pid] = f"campaign {owner}" + (
                f" segment {segment}" if segment else ""
            )
            pid += 1
    return coordinator_records + merged, names


def load_trace_records(
    directory: str,
) -> tuple[list[dict], dict[int, str] | None]:
    """Records (+ track names) for a trace *or* campaign directory.

    Plain ``--trace-out`` directories read their single stream; campaign
    board directories transparently merge every shard stream (plus the
    coordinator's, when the campaign was traced into the board).
    """
    if is_campaign_dir(directory):
        records, names = merge_campaign_records(directory)
        return records, names
    records, _ = read_shard_stream(
        os.path.join(directory, EVENTS_FILE), missing_ok=False
    )
    return records, None


# ------------------------------------------------------------------ metrics
def registry_from_snapshot(snapshot: dict) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` from ``snapshot()`` output.

    Snapshot histogram buckets are cumulative (Prometheus style); they
    are de-cumulated back into per-bucket counts so rebuilt registries
    merge exactly like live ones.

    Raises:
        ValueError: On a malformed snapshot entry.
    """
    registry = MetricsRegistry()
    for name, data in snapshot.items():
        kind = data.get("type")
        if kind == "counter":
            registry.counter(name).set(data["value"])
        elif kind == "gauge":
            registry.gauge(name).set(data["value"])
        elif kind == "histogram":
            pairs = list(data["buckets"])
            if not pairs:
                raise ValueError(f"histogram {name!r} has no buckets")
            bounds = tuple(float(b) for b, _ in pairs[:-1])
            metric = registry.histogram(name, buckets=bounds)
            running = 0
            for index, (_, cum) in enumerate(pairs[:-1]):
                metric.bucket_counts[index] = int(cum) - running
                running = int(cum)
            metric.count = int(data["count"])
            metric.bucket_counts[-1] = metric.count - running
            metric.sum = float(data["sum"])
            if metric.count:
                metric.min = float(data["min"])
                metric.max = float(data["max"])
        else:
            raise ValueError(f"metric {name!r} has unknown type {kind!r}")
    return registry


def merge_snapshots(snapshots: Iterable[dict]) -> MetricsRegistry:
    """Combine shard snapshots into one registry (the campaign view).

    Counters add, gauges take the last shard's value (callers pass
    snapshots in sorted owner order for determinism), histograms merge
    bucket-wise.  A name carrying different metric *types* across shards
    raises ``TypeError``; different histogram bucket bounds raise
    ``ValueError`` — both are programming errors, not data to paper over.
    """
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.absorb(registry_from_snapshot(snapshot))
    return merged


def read_shard_snapshots(board_dir: str) -> dict[str, dict]:
    """Every readable ``obs/<owner>/metrics.json``, keyed by owner."""
    out: dict[str, dict] = {}
    obs = os.path.join(board_dir, OBS_DIR)
    try:
        owners = sorted(os.listdir(obs))
    except (FileNotFoundError, NotADirectoryError):
        return out
    for owner in owners:
        path = os.path.join(obs, owner, SNAPSHOT_FILE)
        if not os.path.isfile(path):
            continue
        try:
            with open(path) as handle:
                snapshot = json.load(handle)
        except (OSError, ValueError):
            continue  # a torn snapshot is dropped, like a torn trace line
        if isinstance(snapshot, dict):
            out[owner] = snapshot
    return out


def merge_board_metrics(board_dir: str) -> MetricsRegistry:
    """One merged registry over every snapshot under ``obs/``."""
    snapshots = read_shard_snapshots(board_dir)
    return merge_snapshots(snapshots[owner] for owner in sorted(snapshots))


# ------------------------------------------------------------------- health
def _scalar(registry: MetricsRegistry, name: str) -> float:
    try:
        return float(registry.value(name))
    except KeyError:
        return 0.0


def campaign_health(
    merged: MetricsRegistry,
    per_owner_done: dict[str, int] | None = None,
) -> dict:
    """Derived campaign health from the merged shard metrics.

    * ``steal_rate`` — stolen leases per claim; a high rate means leases
      expire under live shards (TTL too short or shards overloaded).
    * ``straggler_skew`` — max/mean jobs done per shard (1.0 = perfectly
      balanced); needs the per-owner done counts from the journal.
    * ``contention_index`` — seconds spent waiting on the board lock per
      second of simulation; high values mean the board, not the CPUs, is
      the bottleneck.
    """
    claimed = _scalar(merged, "sim.campaign.jobs_claimed")
    stolen = _scalar(merged, "sim.campaign.leases_stolen")
    flock_wait = _scalar(merged, "sim.campaign.board.flock_wait.seconds")
    job_seconds = _scalar(merged, "sim.campaign.job.seconds")
    skew = None
    if per_owner_done:
        done = [n for n in per_owner_done.values() if n > 0]
        if done:
            skew = max(done) / (sum(done) / len(done))
    return {
        "jobs_claimed": claimed,
        "leases_stolen": stolen,
        "steal_rate": stolen / claimed if claimed else 0.0,
        "straggler_skew": skew,
        "contention_index": (
            flock_wait / job_seconds if job_seconds else None
        ),
    }


def record_health_gauges(
    merged: MetricsRegistry, health: dict
) -> None:
    """Publish the derived health values as gauges on the merged registry.

    These appear in the campaign Prometheus snapshot only — they carry
    wall-clock-derived ratios and never reach a report.
    """
    gauges = {
        "sim.campaign.health.steal_rate": health["steal_rate"],
        "sim.campaign.health.straggler_skew": health["straggler_skew"],
        "sim.campaign.health.contention_index": health["contention_index"],
    }
    for name, value in gauges.items():
        if value is not None:
            merged.gauge(name).set(value)


def autotune_hint(
    shards: int,
    total_jobs: int,
    steal_rate: float,
    contention_index: float | None = None,
) -> dict:
    """A structured shard-count suggestion from campaign health.

    The report's campaign section computes this from *deterministic*
    inputs only (job counts and journal-derived steal rate), so a clean
    campaign report stays byte-identical traced or not;
    ``campaign status --detail`` re-runs it with the wall-clock
    contention index folded in.
    """
    if total_jobs and shards > total_jobs:
        return {
            "suggested_shards": total_jobs,
            "reason": (
                f"only {total_jobs} job(s) on the board — extra shards "
                "would idle"
            ),
        }
    if steal_rate > 0.25:
        return {
            "suggested_shards": max(1, shards // 2),
            "reason": (
                f"steal rate {steal_rate:.0%}: leases expire under live "
                "shards; use fewer shards or a longer --ttl"
            ),
        }
    if contention_index is not None and contention_index > 0.25:
        return {
            "suggested_shards": max(1, shards // 2),
            "reason": (
                f"board contention index {contention_index:.2f}: shards "
                "spend over a quarter of job time waiting on the board "
                "lock"
            ),
        }
    return {
        "suggested_shards": shards,
        "reason": "shard count is well matched to the board",
    }


# ------------------------------------------------------------------- export
def export_campaign_trace(
    board_dir: str,
    out_dir: str | None = None,
) -> dict:
    """Write the merged Chrome trace + Prometheus snapshot for a campaign.

    ``out_dir`` defaults to the board itself; the coordinator stream is
    read from ``<out_dir>/events.jsonl`` (where ``campaign run
    --trace-out`` puts it).  Pure read-merge-write: safe to re-run,
    byte-identical for unchanged streams.
    """
    out_dir = board_dir if out_dir is None else out_dir
    coordinator_records, _ = read_shard_stream(
        os.path.join(out_dir, EVENTS_FILE), missing_ok=True
    )
    records, names = merge_campaign_records(
        board_dir, coordinator_records=coordinator_records
    )
    os.makedirs(out_dir, exist_ok=True)
    chrome_path = os.path.join(out_dir, CHROME_FILE)
    events = write_chrome_trace(records, chrome_path, process_names=names)
    merged = merge_board_metrics(board_dir)
    record_health_gauges(merged, campaign_health(merged))
    metrics_path = os.path.join(out_dir, METRICS_FILE)
    write_prometheus_snapshot(merged, metrics_path)
    return {"chrome": chrome_path, "metrics": metrics_path, "events": events}
