"""Telemetry: metrics, spans, and tracing for the sweep engine.

The engine's observability layer, always-on-capable and zero-
dependency.  Three pieces:

* a process-local **metrics registry**
  (:mod:`repro.telemetry.registry`): counters, gauges, and fixed-bucket
  histograms, thread-safe in process and aggregated *by value* across
  the sweep worker pool;
* **span tracing** (:mod:`repro.telemetry.spans`): ``with
  span("simulate", ...):`` feeds per-phase wall-time histograms and,
  when ``REPRO_TRACE_FILE`` names a sink, a Chrome-trace/Perfetto
  compatible JSONL event stream;
* **surfacing**: an on-disk state file for ``python -m repro telemetry
  summary`` (:mod:`repro.telemetry.state`) and a Prometheus text
  writer (:mod:`repro.telemetry.exposition`).

Instrumentation rides the coarse layers only (one simulation cell, one
plan, one pool group, one experiment) -- never the per-instruction hot
loops -- so results stay bit-identical and the overhead is unmeasurable
at sweep granularity; ``tools/perfbench.py`` asserts the bound.

Environment knobs:

* ``REPRO_TELEMETRY=0`` disables everything (metric sites become a
  single boolean check);
* ``REPRO_TRACE_FILE=<path>`` streams span events as JSONL;
* ``REPRO_TELEMETRY_DIR`` relocates the summary state file (defaults
  to the result store's directory).

See ``docs/observability.md`` for the metric catalog and span names.
"""

from __future__ import annotations

import atexit
import os
from typing import Dict, Optional

from repro.telemetry.registry import (
    Counter,
    DURATION_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    SIZE_BUCKETS,
    merge_snapshots,
    snapshot_diff,
    snapshot_is_empty,
)
from repro.telemetry.spans import (
    TRACE_FILE_ENV,
    current_span,
    export_chrome_trace,
    span,
    validate_trace_file,
    validate_trace_line,
)
from repro.telemetry.exposition import render_prometheus
from repro.telemetry import state as _state

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricHandles",
    "CounterFamily",
    "DURATION_BUCKETS",
    "SIZE_BUCKETS",
    "enabled",
    "set_enabled",
    "metrics",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "merge",
    "reset",
    "flush",
    "span",
    "current_span",
    "validate_trace_file",
    "validate_trace_line",
    "export_chrome_trace",
    "render_prometheus",
    "snapshot_diff",
    "snapshot_is_empty",
    "merge_snapshots",
    "TRACE_FILE_ENV",
    "TELEMETRY_ENV",
]

#: Environment variable switching the whole subsystem off.
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Programmatic override for :func:`enabled`; ``None`` defers to the
#: environment.  Tests and the ``ExperimentOptions.telemetry`` flag use
#: :func:`set_enabled`.
_enabled_override: Optional[bool] = None

_REGISTRY = MetricsRegistry()

#: What the registry looked like at the previous :func:`flush`, so
#: repeated flushes add each increment into the state file exactly once.
_last_flushed: Dict = _REGISTRY.snapshot()

#: The pid that owns the atexit hook (forked children must not flush).
_owner_pid = os.getpid()


def enabled() -> bool:
    """Whether telemetry records anything in this process."""
    if _enabled_override is not None:
        return _enabled_override
    return os.environ.get(TELEMETRY_ENV, "1") != "0"


def set_enabled(value: Optional[bool]) -> None:
    """Force telemetry on/off, or ``None`` to follow the environment."""
    global _enabled_override
    _enabled_override = value


def metrics() -> MetricsRegistry:
    """The process-global registry every instrumentation site uses."""
    return _REGISTRY


class MetricHandles:
    """A cached bundle of metric objects for one hot instrumentation site.

    Every registry lookup takes the registry lock; a site that emits a
    dozen metrics per simulation cell pays that lock-and-hash cost on
    each one, which is most of the telemetry overhead budget.  This
    caches whatever ``build(registry)`` returns and revalidates it
    against :attr:`MetricsRegistry.generation`, which ``reset()``
    bumps — so a cached handle can never keep feeding a metric that
    was dropped from the registry.
    """

    __slots__ = ("_build", "_generation", "_handles")

    def __init__(self, build):
        self._build = build
        self._generation = None
        self._handles = None

    def get(self):
        generation = _REGISTRY._generation
        if self._handles is None or self._generation != generation:
            self._handles = self._build(_REGISTRY)
            self._generation = generation
        return self._handles


class CounterFamily(dict):
    """Counters a :class:`MetricHandles` bundle registers on first use.

    ``family[name]`` is the counter ``prefix + name``, looked up in the
    registry once per bundle.  A site that increments only some of its
    counters on a call (a cache hit *or* a miss) thereby keeps the
    untouched names out of snapshots, as a by-name lookup would.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str = "") -> None:
        super().__init__()
        self._registry = registry
        self._prefix = prefix

    def __missing__(self, name: str) -> Counter:
        counter = self[name] = self._registry.counter(self._prefix + name)
        return counter


def counter(name: str, help: str = "") -> Counter:
    return _REGISTRY.counter(name, help=help)


def gauge(name: str, help: str = "") -> Gauge:
    return _REGISTRY.gauge(name, help=help)


def histogram(name: str, bounds=None, help: str = "") -> Histogram:
    return _REGISTRY.histogram(name, bounds=bounds, help=help)


def snapshot() -> Dict:
    """A JSON-compatible copy of the global registry."""
    return _REGISTRY.snapshot()


def merge(delta: Dict) -> None:
    """Fold a worker delta into the global registry."""
    _REGISTRY.merge(delta)


def reset() -> None:
    """Drop every in-process metric and the flush baseline (tests)."""
    global _last_flushed
    _REGISTRY.reset()
    _last_flushed = _REGISTRY.snapshot()


def flush() -> bool:
    """Persist this process's activity into the telemetry state file.

    Safe to call repeatedly: each call writes only the activity since
    the previous one into the cumulative section, while ``last_run``
    always reflects the whole process.  Called automatically at
    interpreter exit.
    """
    global _last_flushed
    if not enabled():
        return False
    current = _REGISTRY.snapshot()
    delta = snapshot_diff(_last_flushed, current)
    if snapshot_is_empty(current):
        return False
    _last_flushed = current
    return _state.flush_snapshot(current, delta)


def _atexit_flush() -> None:
    if os.getpid() != _owner_pid:
        return
    try:
        flush()
    except Exception:
        # Telemetry must never turn a clean exit into a traceback.
        pass


atexit.register(_atexit_flush)
