"""Unified observability: structured tracing, metrics, exporters, logging.

``repro.obs`` is the pipeline's one measurement subsystem, designed
around the same constraint as the paper's methodology: measurement must
be low-overhead and must never perturb the thing being measured.

* :mod:`repro.obs.metrics` — a process-local registry of counters, gauges
  and histograms, bumped and read by dotted name.
* :mod:`repro.obs.tracer` — a hierarchical span tracer with a
  context-manager API.  Span identities derive from the span path and a
  monotonic counter — never from wall-clock or PIDs — so the span *tree*
  of a run is deterministic; only the ``start_us``/``dur_us`` fields carry
  wall-clock.  Disabled tracing (the default) costs one attribute check
  per span.
* :mod:`repro.obs.exporters` — out-of-band trace/metric files written via
  :mod:`repro.atomicio`: a JSONL event stream (append-only, torn tail
  dropped on read), Chrome trace-event JSON loadable in Perfetto or
  ``chrome://tracing``, and a Prometheus-style text snapshot.
* :mod:`repro.obs.log` — structured stderr logging (text or JSON lines)
  behind ``gemstone --log-level/--log-json``; library code gets its
  loggers from :func:`get_logger` (rule ``OBS001`` bans ``print`` and the
  root logger in library modules).
* :mod:`repro.obs.merge` — read-time stitching for distributed campaigns:
  checksummed shard trace segments adopted into one campaign-wide trace
  with per-shard tracks, and shard metric snapshots merged into one
  campaign Prometheus snapshot with derived health gauges.
* :mod:`repro.obs.prof` — the deterministic replay profiler: per-pass
  cycle attribution derived from ``SimResult.components`` (no sampling,
  no wall-clock in the identity), joined with measured ``replay/*`` span
  durations into the ``gemstone trace profile`` view.

Nothing in this package ever feeds back into results: a report rendered
with tracing on is byte-identical to one rendered with tracing off.
"""

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
from repro.obs.log import configure_logging, get_logger
from repro.obs.merge import (
    campaign_health,
    export_campaign_trace,
    load_trace_records,
    merge_board_metrics,
    merge_campaign_records,
    read_shard_stream,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.prof import attribute_cycles, profile_records
from repro.obs.tracer import NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "attribute_cycles",
    "campaign_health",
    "chrome_trace_document",
    "configure_logging",
    "export_campaign_trace",
    "get_logger",
    "load_trace_records",
    "merge_board_metrics",
    "merge_campaign_records",
    "profile_records",
    "prometheus_snapshot",
    "read_event_stream",
    "read_shard_stream",
    "slowest_spans",
    "summarize_spans",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_prometheus_snapshot",
]
