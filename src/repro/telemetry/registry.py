"""Process-local metrics registry: counters, gauges, histograms.

The sweep engine's observability layer needs three metric kinds and
nothing more:

* **counters** -- monotonically increasing totals (cells simulated,
  store hits, instructions executed);
* **gauges** -- last-write-wins level readings (pool utilization of the
  most recent sweep);
* **histograms** -- fixed-boundary bucket counts plus a running sum
  (per-cell simulation seconds, pool group sizes, queue waits).

Everything is zero-dependency and thread-safe (one lock per registry;
the hot operations are a dict lookup and an integer add).  Cross-
*process* aggregation works by value, not by sharing: a worker takes a
:func:`MetricsRegistry.snapshot` before and after its task, sends the
:func:`snapshot_diff` back over the pool's result channel, and the
parent folds it in with :func:`MetricsRegistry.merge` -- so a parallel
sweep's metrics are exactly the sum of the equivalent serial runs (the
tests assert this).

Snapshots are plain JSON-compatible dicts, which makes them the single
interchange format for the pool, the on-disk telemetry state file, the
Prometheus exposition writer, and the ``BENCH_*.json`` embeds.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Default histogram boundaries for durations in seconds: micro-cells
#: through multi-minute experiment phases.
DURATION_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0
)

#: Default histogram boundaries for small cardinalities (pool group
#: sizes, cells per plan).
SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 512)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A level reading; the last write wins, merges included."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-boundary bucket counts plus a running sum and count.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything above the last edge.
    Boundaries are fixed at creation so that snapshots from different
    processes merge bucket-for-bucket.
    """

    __slots__ = ("name", "help", "bounds", "_counts", "_sum", "_count",
                 "_lock")

    def __init__(self, name: str, bounds: Sequence[float],
                 help: str = "") -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges or list(edges) != sorted(set(edges)):
            raise ConfigurationError(
                f"histogram {name} needs strictly increasing bounds: {bounds}"
            )
        self.name = name
        self.help = help
        self.bounds = edges
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Observe every value in ``values`` under one lock."""
        bounds = self.bounds
        indices = [bisect_left(bounds, value) for value in values]
        with self._lock:
            counts = self._counts
            for index in indices:
                counts[index] += 1
            self._sum += sum(values)
            self._count += len(indices)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def counts(self) -> List[int]:
        return list(self._counts)

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0


class MetricsRegistry:
    """A named collection of metrics with snapshot/merge by value."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    # -- creation ------------------------------------------------------------

    def _get_or_create(self, name: str, kind, *args):
        # A registered metric is returned without the lock: a dict read
        # is atomic, and metrics are only ever added or all dropped.
        metric = self._metrics.get(name)
        if type(metric) is kind:
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = kind(name, *args)
            elif not isinstance(metric, kind):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None,
                  help: str = "") -> Histogram:
        chosen = DURATION_BUCKETS if bounds is None else bounds
        return self._get_or_create(name, Histogram, chosen, help)

    # -- introspection -------------------------------------------------------

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str):
        """The metric registered under ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> Dict:
        """A JSON-compatible copy of every metric's current value."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if isinstance(metric, Counter):
                counters[metric.name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[metric.name] = metric.value
            elif isinstance(metric, Histogram):
                histograms[metric.name] = {
                    "bounds": list(metric.bounds),
                    "counts": metric.counts,
                    "sum": metric.sum,
                    "count": metric.count,
                }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def merge(self, snapshot: Dict) -> None:
        """Fold a snapshot (typically a worker delta) into this registry.

        Counters and histogram buckets add; gauges take the snapshot's
        value.  Histograms created here on demand adopt the snapshot's
        boundaries; an existing histogram with different boundaries is
        a configuration error.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, bounds=data["bounds"])
            if list(hist.bounds) != [float(b) for b in data["bounds"]]:
                raise ConfigurationError(
                    f"histogram {name!r} boundary mismatch on merge"
                )
            with hist._lock:
                for i, count in enumerate(data["counts"]):
                    hist._counts[i] += count
                hist._sum += data["sum"]
                hist._count += data["count"]

    def reset(self) -> None:
        """Drop every metric (tests and ``telemetry reset`` use this)."""
        with self._lock:
            self._metrics.clear()


def snapshot_diff(before: Dict, after: Dict) -> Dict:
    """The activity between two snapshots of the same registry.

    Counters and histograms subtract; gauges report ``after``'s value.
    Metrics absent from ``before`` (created in between) pass through
    unchanged.  Zero-activity metrics are dropped, so an empty diff is
    exactly ``{}``-shaped sections.
    """
    counters: Dict[str, float] = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0.0)
        if delta:
            counters[name] = delta
    gauges = dict(after.get("gauges", {}))
    histograms: Dict[str, Dict] = {}
    for name, data in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(name)
        if prior is None:
            if data["count"]:
                histograms[name] = data
            continue
        count = data["count"] - prior["count"]
        if not count:
            continue
        histograms[name] = {
            "bounds": list(data["bounds"]),
            "counts": [a - b for a, b in zip(data["counts"],
                                             prior["counts"])],
            "sum": data["sum"] - prior["sum"],
            "count": count,
        }
    return {"counters": counters, "gauges": gauges,
            "histograms": histograms}


def snapshot_is_empty(snapshot: Dict) -> bool:
    """True when a snapshot records no activity at all."""
    return (not any(snapshot.get("counters", {}).values())
            and not snapshot.get("gauges", {})
            and not any(h["count"]
                        for h in snapshot.get("histograms", {}).values()))


def merge_snapshots(base: Dict, delta: Dict) -> Dict:
    """Pure-dict merge (counters/buckets add, gauges replace)."""
    registry = MetricsRegistry()
    registry.merge(base)
    registry.merge(delta)
    return registry.snapshot()
