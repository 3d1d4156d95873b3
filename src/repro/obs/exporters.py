"""Trace and metric exporters: JSONL stream reader, Chrome trace, Prometheus.

All finished-file writes go through :mod:`repro.atomicio` so a crash never
leaves a torn export; the live JSONL event stream is the one append-only
artifact, and :func:`read_event_stream` drops a torn tail line the same
way the campaign board's journal does.

The Chrome trace-event document (``{"traceEvents": [...]}`` with ``ph: X``
complete events) loads directly in Perfetto (https://ui.perfetto.dev) and
``chrome://tracing``.  Run *segments* (a killed-then-resumed pipeline) map
to Chrome ``pid`` lanes and worker processes to ``tid`` lanes, so an
interrupted run renders as two aligned process tracks rather than one
garbled timeline.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.atomicio import atomic_write_text
from repro.obs.metrics import Gauge, Histogram, MetricsRegistry

#: Canonical file names inside a ``--trace-out`` directory.
EVENTS_FILE = "events.jsonl"
CHROME_FILE = "trace.chrome.json"
METRICS_FILE = "metrics.prom"


# --------------------------------------------------------------------- stream
def read_event_stream(path: str, missing_ok: bool = False) -> list[dict]:
    """Parse a JSONL trace stream, dropping a torn or corrupt tail.

    Unlike the checksummed board journal, a trace stream is best-effort
    observability: a bad line ends the trusted prefix (everything before
    it is returned) rather than raising.

    Raises:
        FileNotFoundError: When the stream is absent and not ``missing_ok``.
    """
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        if missing_ok:
            return []
        raise
    records: list[dict] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            break
        if not isinstance(record, dict) or "kind" not in record:
            break
        records.append(record)
    return records


def span_records(records: Iterable[dict]) -> list[dict]:
    return [r for r in records if r.get("kind") == "span"]


# --------------------------------------------------------------------- chrome
def chrome_trace_document(
    records: Iterable[dict],
    process_names: dict[int, str] | None = None,
) -> dict:
    """Records -> a Chrome trace-event JSON document (Perfetto-loadable).

    ``process_names`` overrides the display name of individual ``pid``
    lanes (stitched campaigns label shard tracks with the shard owner;
    plain runs keep the default ``gemstone run segment N`` naming).
    """
    events: list[dict] = []
    segments: set[int] = set()
    for record in records:
        kind = record.get("kind")
        segment = int(record.get("segment", 0))
        if kind == "span":
            segments.add(segment)
            events.append(
                {
                    "name": record["name"],
                    "cat": str(record.get("attrs", {}).get("kind", "span")),
                    "ph": "X",
                    "ts": float(record["start_us"]),
                    "dur": max(float(record["dur_us"]), 0.0),
                    "pid": segment,
                    "tid": int(record.get("tid", 0)),
                    "args": {
                        "path": record.get("path", record["name"]),
                        "status": record.get("status", "ok"),
                        **record.get("attrs", {}),
                    },
                }
            )
        elif kind == "event":
            segments.add(segment)
            events.append(
                {
                    "name": record["name"],
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": float(record["ts_us"]),
                    "pid": segment,
                    "tid": int(record.get("tid", 0)),
                    "args": dict(record.get("attrs", {})),
                }
            )
    names = process_names or {}
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": segment,
            "tid": 0,
            "args": {
                "name": names.get(
                    segment, f"gemstone run segment {segment}"
                ),
            },
        }
        for segment in sorted(segments)
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def validate_chrome_trace(document: Any) -> int:
    """Check a Chrome trace-event document's schema; returns event count.

    Raises:
        ValueError: On any structural violation (what ``make trace-smoke``
            and the chaos suite assert against).
    """
    if not isinstance(document, dict):
        raise ValueError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"{where} is missing {key!r}")
        if not isinstance(event["name"], str):
            raise ValueError(f"{where}.name is not a string")
        phase = event["ph"]
        if phase not in ("X", "i", "M", "B", "E", "C"):
            raise ValueError(f"{where}.ph {phase!r} is not a known phase")
        if phase == "X":
            for key in ("ts", "dur"):
                if not isinstance(event.get(key), (int, float)):
                    raise ValueError(f"{where}.{key} is not a number")
            if event["dur"] < 0:
                raise ValueError(f"{where}.dur is negative")
        if phase == "i" and not isinstance(event.get("ts"), (int, float)):
            raise ValueError(f"{where}.ts is not a number")
    return len(events)


def write_chrome_trace(
    records: Iterable[dict],
    path: str,
    process_names: dict[int, str] | None = None,
) -> int:
    """Write the Chrome trace-event export atomically; returns event count."""
    document = chrome_trace_document(records, process_names=process_names)
    atomic_write_text(path, json.dumps(document, sort_keys=True))
    return len(document["traceEvents"])


# ----------------------------------------------------------------- prometheus
def _prom_name(name: str) -> str:
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"repro_{cleaned}"


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def _prom_label_value(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``\\n``, ``"``."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _prom_labels(labels: dict[str, str] | None, extra: str = "") -> str:
    parts = [
        f'{key}="{_prom_label_value(value)}"'
        for key, value in sorted((labels or {}).items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_snapshot(
    registry: MetricsRegistry, labels: dict[str, str] | None = None
) -> str:
    """The registry as Prometheus text exposition format (version 0.0.4).

    ``labels`` are attached to every sample (merged campaign snapshots
    label per-shard slices with ``shard="..."``); label values are escaped
    per the exposition format, so owner names with quotes, backslashes or
    newlines cannot corrupt the document.
    """
    lines: list[str] = []
    plain = _prom_labels(labels)
    for name in registry.names():
        metric = registry._metrics[name]
        prom = _prom_name(name)
        if isinstance(metric, Histogram):
            lines.append(f"# TYPE {prom} histogram")
            for bound, count in metric.cumulative():
                le = "+Inf" if bound == float("inf") else _prom_value(bound)
                bucket = _prom_labels(labels, extra=f'le="{le}"')
                lines.append(f"{prom}_bucket{bucket} {count}")
            lines.append(f"{prom}_sum{plain} {_prom_value(metric.sum)}")
            lines.append(f"{prom}_count{plain} {metric.count}")
        else:
            kind = "gauge" if isinstance(metric, Gauge) else "counter"
            lines.append(f"# TYPE {prom} {kind}")
            lines.append(f"{prom}{plain} {_prom_value(metric.value)}")
    return "\n".join(lines) + "\n"


def write_prometheus_snapshot(registry: MetricsRegistry, path: str) -> None:
    atomic_write_text(path, prometheus_snapshot(registry))


# ------------------------------------------------------------------- analysis
def summarize_spans(records: Iterable[dict]) -> list[dict]:
    """Aggregate spans by name: count, total/mean/max duration (ms).

    Sorted by total duration, descending — the ``gemstone trace summary``
    table.
    """
    totals: dict[str, dict] = {}
    for record in span_records(records):
        entry = totals.setdefault(
            record["name"],
            {"name": record["name"], "count": 0, "total_ms": 0.0, "max_ms": 0.0},
        )
        duration_ms = float(record["dur_us"]) / 1000.0
        entry["count"] += 1
        entry["total_ms"] += duration_ms
        entry["max_ms"] = max(entry["max_ms"], duration_ms)
    for entry in totals.values():
        entry["mean_ms"] = entry["total_ms"] / entry["count"]
    return sorted(
        totals.values(), key=lambda e: (-e["total_ms"], e["name"])
    )


def slowest_spans(records: Iterable[dict], top: int = 10) -> list[dict]:
    """The ``top`` individual spans by duration, longest first."""
    spans = sorted(
        span_records(records),
        key=lambda r: (-float(r["dur_us"]), r.get("id", "")),
    )
    return spans[:top]
