"""Span-based tracing with a Chrome-trace-compatible JSONL sink.

``with span("plan", cells=8):`` times a region, feeds the duration
into the metrics registry (histogram ``span.<name>.seconds``, which is
where the CLI's per-phase wall-time summary comes from), and -- when a
trace sink is active -- appends one *complete event* line to a JSONL
file.  A simulation cell writes the same ``simulate`` event and feeds
the same histogram without a span object
(:func:`repro.sim.simulator.simulate`).

Each line is a standalone JSON object in the Chrome ``traceEvents``
format (``ph: "X"`` complete events, microsecond ``ts``/``dur``,
``pid``/``tid``, span attributes under ``args``).  ``python -m repro
telemetry export --trace-in FILE`` wraps the lines into the
``{"traceEvents": [...]}`` array that ``chrome://tracing`` and the
Perfetto UI load directly; Perfetto also ingests the raw line
stream.  ``REPRO_TRACE_FILE`` is read once per process
(:func:`resolve_sink`).  Workers in a sweep pool inherit it and append
to the same file -- every event carries its writer's pid, so the
viewer separates the tracks.

Span nesting is tracked per thread; every event records its parent
span's name under ``args._parent`` so flattened JSONL consumers can
rebuild the hierarchy without relying on timestamps.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, IO, List, Optional

#: Environment variable naming the JSONL sink; unset disables tracing.
TRACE_FILE_ENV = "REPRO_TRACE_FILE"

#: Keys every trace event must carry (the JSONL schema; see
#: :func:`validate_trace_line`).
REQUIRED_EVENT_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid",
                       "args")

_local = threading.local()


def _span_stack() -> List[str]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def current_span() -> Optional[str]:
    """The innermost active span name on this thread, if any."""
    stack = _span_stack()
    return stack[-1] if stack else None


class TraceSink:
    """An append-only JSONL event writer (one process, one handle)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._fh: Optional[IO[str]] = None

    def _handle(self) -> IO[str]:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def write_event(self, event: Dict) -> None:
        line = json.dumps(event, separators=(",", ":"), sort_keys=True)
        try:
            with self._lock:
                fh = self._handle()
                fh.write(line + "\n")
                fh.flush()
        except OSError:
            # A broken sink must never break a sweep.
            pass

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None


_sink: Optional[TraceSink] = None
_sink_lock = threading.Lock()


def resolve_sink() -> None:
    """Open the sink ``REPRO_TRACE_FILE`` names, or close it when unset.

    Called once per process at import, and again by
    :func:`repro.telemetry.set_enabled` and :func:`repro.telemetry.reset`
    (tests flip the variable).  The file itself opens lazily on the
    first event: forked pool workers inherit the resolved sink and open
    their own handle, so each process owns its file handle.
    """
    global _sink
    path = os.environ.get(TRACE_FILE_ENV) or None
    with _sink_lock:
        if _sink is not None and _sink.path == path:
            return
        if _sink is not None:
            _sink.close()
        _sink = None if path is None else TraceSink(path)


def active_sink() -> Optional[TraceSink]:
    """The resolved sink, or ``None`` when tracing is off."""
    return _sink


def write_event(sink: TraceSink, name: str, wall_start: float,
                duration: float, args: Dict) -> None:
    """Append one complete event (``ph: "X"``) for a finished region."""
    sink.write_event({
        "name": name,
        "cat": "repro",
        "ph": "X",
        "ts": int(wall_start * 1e6),
        "dur": int(duration * 1e6),
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "args": args,
    })


@contextmanager
def span(name: str, **attrs):
    """Time a region: metrics always, a JSONL trace event when sinked.

    ``with span("plan", cells=len(cells)) as args:`` yields the
    (possibly empty) ``args`` dict of the would-be event so callers
    can attach late attributes (``args["simulated"] = ...``).  Spans
    wrap coarse regions (a plan, an experiment); a simulation cell
    records its time and event itself (:func:`repro.sim.simulator.simulate`).
    """
    from repro import telemetry

    if not telemetry.enabled():
        yield {}
        return
    stack = _span_stack()
    if stack:
        attrs["_parent"] = stack[-1]
    stack.append(name)
    wall_start = time.time()
    start = time.perf_counter()
    try:
        yield attrs
    finally:
        duration = time.perf_counter() - start
        stack.pop()
        telemetry.histogram(
            f"span.{name}.seconds", help=f"wall time inside '{name}' spans",
        ).observe(duration)
        if _sink is not None:
            write_event(_sink, name, wall_start, duration, attrs)


# -- JSONL schema validation ---------------------------------------------------


def validate_trace_line(line: str) -> Dict:
    """Parse and validate one JSONL trace line; raises ``ValueError``."""
    event = json.loads(line)
    if not isinstance(event, dict):
        raise ValueError(f"event is not an object: {line[:80]!r}")
    for key in REQUIRED_EVENT_KEYS:
        if key not in event:
            raise ValueError(f"event missing {key!r}: {line[:80]!r}")
    if not isinstance(event["name"], str) or not event["name"]:
        raise ValueError("event name must be a non-empty string")
    if event["ph"] != "X":
        raise ValueError(f"unsupported phase {event['ph']!r} (want 'X')")
    for key in ("ts", "dur"):
        if not isinstance(event[key], (int, float)) or event[key] < 0:
            raise ValueError(f"event {key} must be a non-negative number")
    for key in ("pid", "tid"):
        if not isinstance(event[key], int):
            raise ValueError(f"event {key} must be an integer")
    if not isinstance(event["args"], dict):
        raise ValueError("event args must be an object")
    return event


def validate_trace_file(path) -> int:
    """Validate every line of a JSONL trace; returns the event count.

    Raises ``ValueError`` naming the first offending line.
    """
    events = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                validate_trace_line(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            events += 1
    return events


def export_chrome_trace(jsonl_path, out_path) -> int:
    """Convert a JSONL event stream into a ``traceEvents`` JSON file.

    The output loads directly in ``chrome://tracing`` and the Perfetto
    UI.  Returns the number of events written.
    """
    events = []
    with open(jsonl_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                events.append(validate_trace_line(line))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        fh.write("\n")
    return len(events)
