"""Zero-copy shared-memory trace plane for parallel sweeps.

Before this module existed, every pool worker re-ran ``expand()`` for
its group's trace even when the parent (or a sibling worker) had
already materialized the identical address buffers -- with the
interpreter 10x faster, that redundant data movement dominated cold
parallel sweeps.  The trace plane eliminates it:

1. the **parent** expands each group's trace
   (:func:`repro.sim.resultstore.group_key`: workload content, load
   latency, scale) once, through the simulator's own caches, and
   publishes its ``array('q')`` address buffers, back to back, into one
   :class:`multiprocessing.shared_memory.SharedMemory` segment;
2. a picklable :class:`TraceHandle` (segment name + per-op byte spans)
   rides to the pool with the group instead of nothing -- the address
   payload itself is never pickled;
3. each **worker** attaches zero-copy: it maps the segment and builds
   its :class:`~repro.sim.trace.ExpandedTrace` from ``memoryview``
   casts over the shared buffer, then seeds the worker-local trace
   cache so ``simulate`` never expands.

Segment lifecycle is refcounted in the parent: a dispatch acquires one
reference per group that needs the trace, and the segment is unlinked
as soon as the last reference drops (normally right after the dispatch
finishes, including when a worker raised).  Workers that already
mapped an unlinked segment keep a valid mapping -- POSIX shared memory
frees the pages when the last map closes -- so a persistent pool's
warm trace caches survive the unlink.  An ``atexit`` hook unlinks
anything still alive if a process dies mid-dispatch.

Everything degrades cleanly: if shared memory is unavailable (an
exotic platform, a full ``/dev/shm``, or a workload whose expansion
itself fails), ``acquire`` returns ``None`` and the worker falls back
to local expansion.  Results are bit-identical either way -- the
shared buffers hold exactly the bytes ``expand()`` produces.
"""

from __future__ import annotations

import atexit
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.sim.resultstore import group_key
from repro.workloads.workload import Workload

try:  # pragma: no cover - exercised indirectly via shm_available()
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without _posixshmem
    _shared_memory = None  # type: ignore[assignment]

#: Prefix of every segment this module creates; the CI leak check and
#: the tests scan ``/dev/shm`` for it.
SEGMENT_PREFIX = "repro-trace"


def shm_available() -> bool:
    """Whether the platform offers POSIX shared memory at all."""
    return _shared_memory is not None


def _attach_untracked(name: str):
    """``SharedMemory(name=...)`` without registering with the tracker.

    On 3.8-3.12 *attaching* registers the segment with the resource
    tracker just like creating it does (bpo-38119): with a forked pool
    the worker's later unregister would race the parent's single
    registration in the shared tracker, and with spawn the worker's
    private tracker would unlink a segment it never owned on exit.
    Only the creating parent may hold the registration, so attachment
    briefly no-ops ``register`` (workers are single-threaded, and the
    3.13+ ``track=False`` parameter does exactly this internally).
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


@dataclass(frozen=True)
class TraceHandle:
    """Everything a worker needs to rebuild a trace from shared memory.

    ``spans`` is parallel to the compiled body: ``(byte_offset, count)``
    for memory ops, ``None`` for the rest.  The worker recompiles the
    body itself (deterministic, and cached across a persistent pool's
    lifetime), so only this small descriptor is pickled per group.
    """

    segment: str
    spans: Tuple[Optional[Tuple[int, int]], ...]
    executions: int
    load_latency: int
    scale: float
    nbytes: int


@dataclass(frozen=True)
class StreamHandle:
    """Everything a worker needs to rebuild an event stream zero-copy.

    ``spans`` is parallel to the stream's slots: ``(byte_offset, count)``
    of each slot's line-address buffer inside the segment.  The slot
    structure itself (kinds, pregaps, dependence terms) is recomputed
    by the worker from its compiled body -- deterministic and cached --
    so, as with :class:`TraceHandle`, only this small descriptor is
    pickled per group and the line-address payload never is.
    """

    segment: str
    line_size: int
    spans: Tuple[Tuple[int, int], ...]
    load_latency: int
    scale: float
    nbytes: int


class _Segment:
    __slots__ = ("shm", "handle", "refs")

    def __init__(self, shm, handle) -> None:
        self.shm = shm
        self.handle = handle
        self.refs = 1


#: Plane key: the group identity of one expanded trace.
_Key = Tuple[str, int, float]


#: Monotonic per-process segment sequence number.  Module-global (not
#: per plane) so a name is never reissued while an earlier mapping of
#: it may still be cached in :data:`_ATTACHED`.
_SEQ = 0
_SEQ_LOCK = threading.Lock()


def _next_segment_name() -> str:
    global _SEQ
    with _SEQ_LOCK:
        _SEQ += 1
        return f"{SEGMENT_PREFIX}-{os.getpid()}-{_SEQ}"


class TracePlane:
    """Parent-side registry of published trace segments (refcounted)."""

    def __init__(self) -> None:
        self._segments: Dict[_Key, _Segment] = {}
        self._streams: Dict[Tuple[_Key, int], _Segment] = {}
        self._lock = threading.Lock()

    def acquire(
        self, workload: Workload, load_latency: int, scale: float
    ) -> Optional[TraceHandle]:
        """Publish (or re-reference) the trace's segment; ``None`` = fallback.

        Any failure -- shared memory missing, segment creation denied,
        or the expansion itself raising -- is swallowed here: the
        caller dispatches the group without a handle and the worker
        expands locally, where a genuine workload error surfaces with
        full cell context.
        """
        if not shm_available():
            return None
        key = group_key(workload, load_latency, scale)
        with self._lock:
            record = self._segments.get(key)
            if record is not None:
                record.refs += 1
                return record.handle
            try:
                record = self._publish(workload, load_latency, scale)
            except Exception:
                if telemetry.enabled():
                    telemetry.counter("plane.fallbacks").inc()
                return None
            self._segments[key] = record
            if telemetry.enabled():
                m = telemetry.metrics()
                m.counter("plane.segments_created").inc()
                m.counter("plane.bytes_published").inc(record.handle.nbytes)
            return record.handle

    def _publish(
        self, workload: Workload, load_latency: int, scale: float
    ) -> _Segment:
        from repro.sim.simulator import expand_workload

        _, trace = expand_workload(workload, load_latency, scale=scale)
        spans: List[Optional[Tuple[int, int]]] = []
        offset = 0
        for buf in trace.addresses:
            if buf is None:
                spans.append(None)
            else:
                spans.append((offset, len(buf)))
                offset += 8 * len(buf)
        shm = self._create_segment(max(offset, 1))
        view = memoryview(shm.buf)
        try:
            for span, buf in zip(spans, trace.addresses):
                if span is None:
                    continue
                start, count = span
                view[start:start + 8 * count] = memoryview(buf).cast("B")
        finally:
            view.release()
        handle = TraceHandle(
            segment=shm.name,
            spans=tuple(spans),
            executions=trace.executions,
            load_latency=load_latency,
            scale=scale,
            nbytes=offset,
        )
        return _Segment(shm, handle)

    @staticmethod
    def _create_segment(nbytes: int):
        """A fresh named segment; the name embeds the pid for leak triage."""
        while True:
            try:
                return _shared_memory.SharedMemory(
                    name=_next_segment_name(), create=True, size=nbytes
                )
            except FileExistsError:
                continue

    def release(
        self, workload: Workload, load_latency: int, scale: float
    ) -> None:
        """Drop one reference; unlink the segment when the last one goes."""
        key = group_key(workload, load_latency, scale)
        with self._lock:
            record = self._segments.get(key)
            if record is None:
                return
            record.refs -= 1
            if record.refs > 0:
                return
            del self._segments[key]
            self._destroy(record)

    # -- event streams ---------------------------------------------------------

    def acquire_stream(
        self, workload: Workload, load_latency: int, scale: float,
        line_size: int,
    ) -> Optional[StreamHandle]:
        """Publish (or re-reference) the group's event-stream segment.

        A policy sibling's replay reads only the stream's
        line-address buffers; publishing them once lets every worker
        replaying a policy sibling attach zero-copy instead of
        re-deriving the lines from its trace.  Failures degrade exactly
        like :meth:`acquire`: ``None`` means the worker builds the
        stream locally, bit-identically.
        """
        if not shm_available():
            return None
        key = (group_key(workload, load_latency, scale), line_size)
        with self._lock:
            record = self._streams.get(key)
            if record is not None:
                record.refs += 1
                return record.handle
            try:
                record = self._publish_stream(
                    workload, load_latency, scale, line_size)
            except Exception:
                record = None
            if record is None:
                if telemetry.enabled():
                    telemetry.counter("plane.stream_fallbacks").inc()
                return None
            self._streams[key] = record
            if telemetry.enabled():
                m = telemetry.metrics()
                m.counter("plane.stream_segments_created").inc()
                m.counter("plane.stream_bytes_published").inc(
                    record.handle.nbytes)
            return record.handle

    def _publish_stream(
        self, workload: Workload, load_latency: int, scale: float,
        line_size: int,
    ) -> Optional[_Segment]:
        from repro.sim.stream import event_stream

        stream = event_stream(workload, load_latency, scale, line_size)
        if stream is None:
            return None
        spans: List[Tuple[int, int]] = []
        offset = 0
        for buf in stream.lines:
            spans.append((offset, len(buf)))
            offset += 8 * len(buf)
        shm = self._create_segment(max(offset, 1))
        view = memoryview(shm.buf)
        try:
            for span, buf in zip(spans, stream.lines):
                start, count = span
                view[start:start + 8 * count] = memoryview(buf).cast("B")
        finally:
            view.release()
        handle = StreamHandle(
            segment=shm.name,
            line_size=line_size,
            spans=tuple(spans),
            load_latency=load_latency,
            scale=scale,
            nbytes=offset,
        )
        return _Segment(shm, handle)

    def release_stream(
        self, workload: Workload, load_latency: int, scale: float,
        line_size: int,
    ) -> None:
        """Drop one stream reference; unlink on the last one."""
        key = (group_key(workload, load_latency, scale), line_size)
        with self._lock:
            record = self._streams.get(key)
            if record is None:
                return
            record.refs -= 1
            if record.refs > 0:
                return
            del self._streams[key]
            self._destroy(record, counter="plane.stream_segments_unlinked")

    def release_all(self) -> None:
        """Unlink every live segment regardless of refcounts (atexit)."""
        with self._lock:
            traces = list(self._segments.values())
            streams = list(self._streams.values())
            self._segments.clear()
            self._streams.clear()
        for record in traces:
            self._destroy(record)
        for record in streams:
            self._destroy(record, counter="plane.stream_segments_unlinked")

    @staticmethod
    def _destroy(record: _Segment,
                 counter: str = "plane.segments_unlinked") -> None:
        try:
            record.shm.close()
            record.shm.unlink()
        except (OSError, BufferError):  # pragma: no cover - best effort
            pass
        if telemetry.enabled():
            telemetry.counter(counter).inc()

    def live_segments(self) -> int:
        with self._lock:
            return len(self._segments) + len(self._streams)


# -- worker side --------------------------------------------------------------

#: Segments this process has mapped, by name.  Kept so repeated groups
#: over one trace share a single mapping, and so the buffer outlives
#: the memoryviews cached inside worker-local ``ExpandedTrace``s.
_ATTACHED: Dict[str, object] = {}

#: Soft cap on idle mappings; see :func:`_prune_attached`.
_ATTACH_LIMIT = 64


def _prune_attached(limit: int = _ATTACH_LIMIT) -> None:
    """Close mappings whose trace the worker cache has since evicted.

    A mapping with live exported memoryviews refuses to close
    (``BufferError``) and is kept; everything else is surplus.
    """
    if len(_ATTACHED) <= limit:
        return
    for name in list(_ATTACHED):
        if len(_ATTACHED) <= limit:
            break
        try:
            _ATTACHED[name].close()
        except BufferError:
            continue
        except OSError:  # pragma: no cover - already gone
            pass
        del _ATTACHED[name]


def attach_trace(workload: Workload, handle: TraceHandle):
    """Build an :class:`ExpandedTrace` over the shared segment, or ``None``.

    The body is recompiled locally (hits the worker's compile cache);
    the address buffers are ``memoryview(...).cast('q')`` windows into
    the mapped segment -- no copy, no pickling, indexable exactly like
    the ``array('q')`` buffers ``expand()`` builds.  Returns ``None``
    when the segment has vanished or the compiled body no longer lines
    up with the handle (both mean: fall back to local expansion).
    """
    from repro.sim.trace import ExpandedTrace
    from repro.sim.simulator import compile_workload

    shm = _ATTACHED.get(handle.segment)
    if shm is None:
        if not shm_available():
            return None
        try:
            shm = _attach_untracked(handle.segment)
        except (OSError, ValueError):
            if telemetry.enabled():
                telemetry.counter("plane.attach_failures").inc()
            return None
        _prune_attached()
        _ATTACHED[handle.segment] = shm

    compiled = compile_workload(workload, handle.load_latency)
    if len(compiled.instructions) != len(handle.spans):
        if telemetry.enabled():
            telemetry.counter("plane.attach_failures").inc()
        return None

    base = memoryview(shm.buf)
    addresses = []
    for span in handle.spans:
        if span is None:
            addresses.append(None)
        else:
            start, count = span
            addresses.append(base[start:start + 8 * count].cast("q"))
    if telemetry.enabled():
        m = telemetry.metrics()
        m.counter("plane.attaches").inc()
        m.counter("plane.bytes_attached").inc(handle.nbytes)
    return ExpandedTrace(
        body=compiled.instructions,
        addresses=addresses,
        executions=handle.executions,
        workload_name=workload.name,
    )


def attach_stream(trace, handle: StreamHandle):
    """Build an :class:`EventStream` over the shared segment, or ``None``.

    ``trace`` is the worker's :class:`ExpandedTrace` for the group (an
    attached shared-memory trace or a local expansion -- either works:
    the stream structure depends only on the compiled body).  The line
    buffers become ``memoryview(...).cast('q')`` windows into the
    mapped segment, so sibling replays across the pool share one copy
    of the line addresses.  Returns ``None`` when the segment has
    vanished or the buffers no longer line up with the body's memory
    ops (fall back to a local :func:`~repro.sim.stream.build_stream`).
    """
    from repro.sim.stream import build_stream

    shm = _ATTACHED.get(handle.segment)
    if shm is None:
        if not shm_available():
            return None
        try:
            shm = _attach_untracked(handle.segment)
        except (OSError, ValueError):
            if telemetry.enabled():
                telemetry.counter("plane.stream_attach_failures").inc()
            return None
        _prune_attached()
        _ATTACHED[handle.segment] = shm

    n_mem = sum(1 for buf in trace.addresses if buf is not None)
    if n_mem != len(handle.spans):
        if telemetry.enabled():
            telemetry.counter("plane.stream_attach_failures").inc()
        return None
    base = memoryview(shm.buf)
    lines = []
    for start, count in handle.spans:
        lines.append(base[start:start + 8 * count].cast("q"))
    stream = build_stream(trace, handle.line_size, lines=lines)
    if stream is not None and telemetry.enabled():
        m = telemetry.metrics()
        m.counter("plane.stream_attaches").inc()
        m.counter("plane.stream_bytes_attached").inc(handle.nbytes)
    return stream


# -- process-wide plane --------------------------------------------------------

#: The plane the dispatcher uses.  One per process; forked children
#: must never unlink the parent's segments, so every mutation checks
#: the owning pid.
_PLANE = TracePlane()
_PLANE_PID = os.getpid()


def plane() -> TracePlane:
    """The process-wide plane (re-created after a fork)."""
    global _PLANE, _PLANE_PID
    if _PLANE_PID != os.getpid():
        _PLANE = TracePlane()
        _PLANE_PID = os.getpid()
    return _PLANE


def _atexit_release() -> None:
    if _PLANE_PID == os.getpid():
        _PLANE.release_all()


atexit.register(_atexit_release)
