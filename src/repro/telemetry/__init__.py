"""Telemetry: metrics, spans, and tracing for the sweep engine.

The engine's observability layer, always-on-capable and zero-
dependency.  Three pieces:

* a process-local **metrics registry**
  (:mod:`repro.telemetry.registry`): counters, gauges, and fixed-bucket
  histograms, thread-safe in process and aggregated *by value* across
  the sweep worker pool;
* **span tracing** (:mod:`repro.telemetry.spans`): ``with
  span("plan", ...):`` feeds per-phase wall-time histograms and,
  when ``REPRO_TRACE_FILE`` names a sink, a Chrome-trace/Perfetto
  compatible JSONL event stream;
* **surfacing**: an on-disk state file for ``python -m repro telemetry
  summary`` (:mod:`repro.telemetry.state`) and a Prometheus text
  writer (:mod:`repro.telemetry.exposition`).

Instrumentation rides the coarse layers only (one simulation cell, one
plan, one pool group, one experiment) -- never the per-instruction hot
loops -- so results stay bit-identical; ``tools/perfbench.py`` asserts
the overhead bound.  A simulation cell only appends one record to a
buffer its module keeps; that module installs a collector
(:func:`set_collector`) which folds the records into the registry
before every read below (:func:`collect`).

Environment knobs:

* ``REPRO_TELEMETRY=0`` disables everything (metric sites become a
  single boolean check);
* ``REPRO_TRACE_FILE=<path>`` streams span events as JSONL;
* ``REPRO_TELEMETRY_DIR`` relocates the summary state file (defaults
  to the result store's directory).

The first two are read once per process, and again by
:func:`set_enabled` and :func:`reset`.

See ``docs/observability.md`` for the metric catalog and span names.
"""

from __future__ import annotations

import atexit
import os
from typing import Callable, Dict, Optional

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
    resolve_sink,
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
    "DURATION_BUCKETS",
    "SIZE_BUCKETS",
    "enabled",
    "set_enabled",
    "set_collector",
    "collect",
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

#: Whether telemetry records anything: the override, else
#: ``REPRO_TELEMETRY`` as :func:`_resolve` last read it.
_enabled = True

_REGISTRY = MetricsRegistry()

#: What the registry looked like at the previous :func:`flush`, so
#: repeated flushes add each increment into the state file exactly once.
_last_flushed: Dict = _REGISTRY.snapshot()

#: The pid that owns the atexit hook (forked children must not flush).
_owner_pid = os.getpid()


def _no_records(registry: Optional[MetricsRegistry]) -> None:
    pass


#: Folds records kept outside the registry into ``registry``, or drops
#: them when it is ``None`` (see :func:`set_collector`).
_collector: Callable[[Optional[MetricsRegistry]], None] = _no_records


def _resolve() -> None:
    """Read ``REPRO_TELEMETRY`` and ``REPRO_TRACE_FILE`` again."""
    global _enabled
    if _enabled_override is not None:
        _enabled = _enabled_override
    else:
        _enabled = os.environ.get(TELEMETRY_ENV, "1") != "0"
    resolve_sink()


def enabled() -> bool:
    """Whether telemetry records anything in this process."""
    return _enabled


def set_enabled(value: Optional[bool]) -> None:
    """Force telemetry on/off, or ``None`` to follow the environment.

    Records made so far are folded (or dropped, when telemetry was
    off) first, and both environment switches are read again.
    """
    global _enabled_override
    collect()
    _enabled_override = value
    _resolve()


def set_collector(
    collector: Callable[[Optional[MetricsRegistry]], None]
) -> None:
    """Install the one function that folds deferred records.

    ``collector(registry)`` folds every record made since its previous
    call into ``registry``; ``collector(None)`` drops them.  It runs
    before every read of the registry, so it must return at once when
    nothing is pending.
    """
    global _collector
    _collector = collector


def collect() -> None:
    """Fold deferred records into the registry (drop them while off)."""
    _collector(_REGISTRY if _enabled else None)


def metrics() -> MetricsRegistry:
    """The process-global registry every instrumentation site uses."""
    collect()
    return _REGISTRY


def counter(name: str, help: str = "") -> Counter:
    return metrics().counter(name, help=help)


def gauge(name: str, help: str = "") -> Gauge:
    return metrics().gauge(name, help=help)


def histogram(name: str, bounds=None, help: str = "") -> Histogram:
    return metrics().histogram(name, bounds=bounds, help=help)


def snapshot() -> Dict:
    """A JSON-compatible copy of the global registry."""
    return metrics().snapshot()


def merge(delta: Dict) -> None:
    """Fold a worker delta into the global registry."""
    _REGISTRY.merge(delta)


def reset() -> None:
    """Drop every in-process metric, pending record and the flush
    baseline, and read both environment switches again (tests)."""
    global _last_flushed
    _collector(None)
    _REGISTRY.reset()
    _last_flushed = _REGISTRY.snapshot()
    _resolve()


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
    current = snapshot()
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


_resolve()
atexit.register(_atexit_flush)
