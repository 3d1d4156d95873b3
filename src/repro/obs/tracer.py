"""Hierarchical span tracing with deterministic identities.

A :class:`Tracer` hands out :class:`Span` context managers; nesting builds
a slash-separated *span path* (``pipeline/phase:dataset/executor-batch``).
Span identities are ``"<path>#<n>"`` where ``n`` is the tracer's monotonic
record counter — never wall-clock, never a PID — so two runs of the same
configuration produce the identical span *tree*; only the ``start_us`` /
``dur_us`` wall-clock fields differ (compare with :meth:`Tracer.shape`).

Wall-clock is read from ``time.perf_counter`` (sanctioned even inside the
deterministic scopes: durations may be *measured* as long as results never
depend on them) and kept exclusively in trace records.  Nothing a tracer
records ever reaches a report.

Campaign shard processes cannot share the coordinator's tracer.  Each
shard streams its own records to the board, and
:func:`repro.obs.merge.merge_campaign_records` re-identifies them under
one counter, with one Chrome process track per shard segment, so a
sharded campaign still yields one coherent trace.

With ``stream_path`` set, every record is appended to a JSONL event stream
as it closes (mode ``"a"``, flushed per line — the append-only journal
pattern; a torn tail line is dropped by the reader).  A run killed
mid-pipeline therefore leaves a well-formed trace of everything that
finished, and a resumed run appends a new *segment* to the same stream.

Disabled tracing (the default everywhere) costs one ``enabled`` check per
span: :data:`NULL_TRACER` returns a shared no-op span and reads no clocks.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from time import perf_counter
from typing import Any

from repro.obs.metrics import MetricsRegistry

#: Trace stream schema; bump when the record format changes.
TRACE_SCHEMA_VERSION = 1

#: Record fields that carry wall-clock and are excluded from shape
#: comparisons (same config + seed => identical trees modulo these).
WALL_CLOCK_FIELDS = frozenset({"start_us", "dur_us", "ts_us"})


class _NullSpan:
    """The shared no-op span handed out by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    @property
    def start_us(self) -> float:
        return 0.0


_NULL_SPAN = _NullSpan()


class Span:
    """One live span; use as a context manager via :meth:`Tracer.span`."""

    __slots__ = ("tracer", "name", "path", "span_id", "parent_id",
                 "attrs", "start_us", "status")

    def __init__(self, tracer: "Tracer", name: str, path: str,
                 span_id: str, parent_id: str | None, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.path = path
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_us: float = 0.0
        self.status = "ok"

    def __enter__(self) -> "Span":
        self.start_us = self.tracer._now_us()
        self.tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._close(self)
        return False

    def set(self, **attrs: Any) -> None:
        """Attach attributes to this span after the fact."""
        self.attrs.update(attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point event inside this span."""
        self.tracer.event(name, **attrs)


class Tracer:
    """Span factory, record store, and (optionally) JSONL stream writer.

    Args:
        enabled: Disabled tracers record nothing and read no clocks.
        stream_path: Append each record to this JSONL file as it closes.
            The directory is created on demand; an unusable path degrades
            the tracer to in-memory recording with a single warning.
        metrics: When given, every closed span feeds a duration histogram
            (``trace.span.<name>.seconds``) in this registry.

    A tracer is single-threaded by design: the pipeline runs phases
    sequentially, and each campaign shard records into a tracer of its
    own.  Every record carries ``"tid": 0``, the one Chrome thread lane.
    """

    def __init__(
        self,
        enabled: bool = False,
        stream_path: str | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.enabled = enabled
        self.metrics = metrics
        self.records: list[dict] = []
        self.segment = 0
        self._seq = 0
        self._stack: list[Span] = []
        self._stream = None
        self._segment_sha = hashlib.sha1()
        self._segment_lines = 0
        self._epoch = perf_counter() if enabled else 0.0
        if enabled and stream_path is not None:
            self._open_stream(stream_path)

    # ------------------------------------------------------------------ stream
    def _open_stream(self, stream_path: str) -> None:
        from repro.obs.exporters import read_event_stream

        try:
            directory = os.path.dirname(stream_path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            prior = read_event_stream(stream_path, missing_ok=True)
            self.segment = 1 + max(
                (r["segment"] for r in prior if r.get("kind") == "segment-start"),
                default=-1,
            )
            self._stream = open(stream_path, "a")
        except OSError as exc:
            self._stream = None
            warnings.warn(
                f"trace stream {stream_path} is unusable ({exc}); "
                "tracing continues in memory only",
                RuntimeWarning,
                stacklevel=3,
            )
        self._record(
            {
                "kind": "segment-start",
                "schema": TRACE_SCHEMA_VERSION,
                "segment": self.segment,
            }
        )

    def _record(self, record: dict) -> None:
        self.records.append(record)
        if self._stream is not None:
            try:
                line = json.dumps(record, sort_keys=True) + "\n"
                self._stream.write(line)
                self._stream.flush()
                self._segment_sha.update(line.encode("utf-8"))
                self._segment_lines += 1
            except (OSError, ValueError):
                self._stream = None

    # ------------------------------------------------------------------- clock
    def _now_us(self) -> float:
        return (perf_counter() - self._epoch) * 1e6

    # -------------------------------------------------------------------- api
    def span(self, name: str, **attrs: Any) -> Span | _NullSpan:
        """A new child span of the innermost open span (or a root span)."""
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        path = f"{parent.path}/{name}" if parent is not None else name
        span_id = f"{path}#{self._seq}"
        self._seq += 1
        return Span(
            self,
            name,
            path,
            span_id,
            parent.span_id if parent is not None else None,
            dict(attrs),
        )

    def event(self, name: str, **attrs: Any) -> None:
        """A point event attached to the innermost open span."""
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else None
        path = f"{parent.path}/{name}" if parent is not None else name
        self._record(
            {
                "kind": "event",
                "id": f"{path}#{self._seq}",
                "span": parent.span_id if parent is not None else None,
                "name": name,
                "path": path,
                "ts_us": self._now_us(),
                "tid": 0,
                "segment": self.segment,
                "attrs": dict(attrs),
            }
        )
        self._seq += 1

    def _close(self, span: Span) -> None:
        # Tolerate a span exited out of LIFO order (an abandoned child
        # after an error): pop down to and including this span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        duration_us = self._now_us() - span.start_us
        self._record(
            {
                "kind": "span",
                "id": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "path": span.path,
                "start_us": span.start_us,
                "dur_us": duration_us,
                "tid": 0,
                "segment": self.segment,
                "status": span.status,
                "attrs": span.attrs,
            }
        )
        if self.metrics is not None:
            self.metrics.histogram(f"trace.span.{span.name}.seconds").observe(
                duration_us / 1e6
            )

    # ------------------------------------------------------------------ tests
    def shape(self) -> list[tuple]:
        """The deterministic skeleton of the trace: records minus wall-clock.

        Two runs of the same configuration must produce equal shapes; this
        is what the determinism tests compare.
        """
        skeleton = []
        for record in self.records:
            skeleton.append(
                tuple(
                    (key, _freeze(value))
                    for key, value in sorted(record.items())
                    if key not in WALL_CLOCK_FIELDS
                )
            )
        return skeleton

    def close(self) -> None:
        """Seal and close the stream handle (records stay in memory).

        The seal is a ``segment-end`` record carrying the line count and
        SHA-1 of everything this tracer wrote for its segment.  It goes to
        the *stream only* (not :attr:`records`), so shapes are
        unaffected; readers use it to verify a shard's segment arrived
        intact, and its absence marks a segment that died mid-write.
        """
        if self._stream is not None:
            try:
                seal = {
                    "kind": "segment-end",
                    "segment": self.segment,
                    "records": self._segment_lines,
                    "sha1": self._segment_sha.hexdigest(),
                }
                self._stream.write(json.dumps(seal, sort_keys=True) + "\n")
                self._stream.flush()
            except (OSError, ValueError):
                pass
            try:
                self._stream.close()
            except OSError:
                pass
            self._stream = None


def _freeze(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


#: The shared disabled tracer: the default for every component.
NULL_TRACER = Tracer(enabled=False)
