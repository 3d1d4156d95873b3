"""The metrics registry: counters, gauges and histograms by dotted name.

One :class:`MetricsRegistry` instance is the single source of truth for a
pipeline run's job accounting.  The executor, the result cache, the run
state, the guardrails and the campaign board each write into the registry
they are handed (or a private one when constructed standalone), bumping
counters by their dotted names — ``metrics.counter("sim.cache.hits").inc()``
— and readers (the report, the exports, campaign merges) read the same
names back.  The one attribute view left is the executor's
:class:`~repro.sim.executor.SimTelemetry`.

Metrics are process-local and deliberately unsynchronised: campaign shard
processes own their own registries and snapshot them to the board, where
:mod:`repro.obs.merge` folds them into one campaign-wide view.  Values never feed back into analysis products — the
registry is observability, not state.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


class Counter:
    """A cumulative value (int or float).

    ``inc`` is the normal write path; ``set`` backs the ``+=`` writes of
    :class:`~repro.sim.executor.SimTelemetry` and snapshot reloads.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        self.value = value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1) -> None:
        self.value += amount


#: Default histogram buckets: sub-millisecond through minutes, in seconds.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0
)


class Histogram:
    """A fixed-bucket duration histogram (seconds by convention).

    Tracks count / sum / min / max plus cumulative bucket counts in the
    Prometheus style (``le`` upper bounds, implicit ``+Inf``).
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending with +Inf."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            pairs.append((bound, running))
        pairs.append((float("inf"), self.count))
        return pairs


@dataclass
class MetricsRegistry:
    """All metrics of one process, keyed by dotted name.

    Accessors create on first use, so instrumentation never has to
    pre-declare; asking for an existing name with a different metric type
    is a programming error and raises ``TypeError``.
    """

    _metrics: dict[str, Counter | Gauge | Histogram] = field(
        default_factory=dict
    )

    def _get(self, name: str, cls, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, buckets=buckets)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def value(self, name: str) -> float:
        """Convenience scalar read (counter/gauge value, histogram sum)."""
        metric = self._metrics[name]
        if isinstance(metric, Histogram):
            return metric.sum
        return metric.value

    def values_with_prefix(self, prefix: str) -> dict[str, float]:
        """Scalar values of every metric under one dotted prefix, sorted.

        Lets a caller surface one subsystem's counters (the campaign CLI
        prints ``sim.campaign.*`` this way) without naming each metric.
        """
        return {
            name: self.value(name)
            for name in self.names()
            if name.startswith(prefix)
        }

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready dump of every metric, sorted by name."""
        out: dict[str, dict] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out[name] = {"type": "counter", "value": metric.value}
            elif isinstance(metric, Gauge):
                out[name] = {"type": "gauge", "value": metric.value}
            else:
                out[name] = {
                    "type": "histogram",
                    "count": metric.count,
                    "sum": metric.sum,
                    "min": metric.min if metric.count else None,
                    "max": metric.max if metric.count else None,
                    "buckets": [
                        [bound, n] for bound, n in metric.cumulative()
                    ],
                }
        return out

    def absorb(self, other: "MetricsRegistry") -> None:
        """Fold another registry's counters/histograms into this one.

        Gauges take the other registry's value (last write wins).  Used to
        merge a standalone component's private registry into a shared one.
        """
        for name, metric in other._metrics.items():
            if isinstance(metric, Counter):
                self.counter(name).inc(metric.value)
            elif isinstance(metric, Gauge):
                self.gauge(name).set(metric.value)
            else:
                mine = self.histogram(name, buckets=metric.buckets)
                if mine.buckets != metric.buckets:
                    raise ValueError(
                        f"histogram {name!r} bucket mismatch: "
                        f"{mine.buckets} != {metric.buckets}"
                    )
                for bound_index, n in enumerate(metric.bucket_counts):
                    mine.bucket_counts[bound_index] += n
                mine.count += metric.count
                mine.sum += metric.sum
                if metric.count:
                    mine.min = min(mine.min, metric.min)
                    mine.max = max(mine.max, metric.max)

