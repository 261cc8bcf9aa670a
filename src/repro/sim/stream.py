"""Memory-event streams: the policy-independent half of an execution.

Every cell in a policy sweep re-runs the same compiled trace; only the
miss handler differs.  This module factors the policy-*independent*
work out of that loop once per (workload, load latency, scale, line
size) group:

* **line addresses** -- each memory op's per-execution addresses with
  the line-offset bits pre-stripped, stored as ``array('q')`` buffers,
  so a replay probes residency without shifting;
* **dependency terms** -- a static max-plus summary of every
  true-data-dependency stall the interpreter could take between
  memory ops.  Between two memory ops the interpreter's stall checks
  compose as ``issue = max(cycle + pregap, max_i(ready_i + delta_i))``
  where each ``delta_i`` is a compile-time constant and each
  ``ready_i`` is the ready time of a *load slot* (only load
  destinations ever publish future ready times).  A two-pass
  reaching-definitions walk over the flattened program extracts, per
  memory op, exactly which load slots can bind and with what delta --
  see ``docs/performance.md`` for the exactness argument;
* **functional classification** -- the hit/miss aggregates of every
  reference under an immediate-install cache, which equals the
  *blocking* policy's machine exactly (a non-blocking cache's tag
  state diverges through in-flight fills, so siblings replay their
  own tag store instead).  One linear pass per (geometry, store
  policy), run by ``repro_classify`` in the C kernel
  (:func:`repro.cpu.replay_cnative.classify_cnative`), or by
  :func:`_lru_functional` in Python when no kernel can be had.

The replay kernel (:mod:`repro.cpu.replay`) then advances each
policy's :class:`~repro.core.handler.MissHandler` over the stream
without touching the interpreter, and the blocking policies collapse
to a closed form over the functional aggregates.  Results are
bit-identical to the reference loops; ``tests/sim/test_fusion_equivalence.py``
asserts it per policy family.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.cache.geometry import CacheGeometry
from repro.cache.tags import make_tag_store
from repro.cpu.replay_cnative import classify_cnative
from repro.sim.lru import LRUCache
from repro.sim.resultstore import group_key
from repro.sim.trace import P_LOAD, P_SCALAR, P_SKIP, P_STORE, ExpandedTrace
from repro.workloads.workload import Workload

#: The stream cache's and the stream builder's counters, looked up once
#: per registry generation and each registered when first incremented.
_METRICS = telemetry.MetricHandles(telemetry.CounterFamily)


@dataclass(frozen=True)
class SlotSpec:
    """Static description of one memory op in the body.

    ``terms`` is the op's readiness summary: the op issues at
    ``max(cycle + pregap, max over (lr, delta) of ready[lr] + delta)``
    where ``ready`` is the per-load-slot rolling ready-time array the
    replay kernel maintains.
    """

    #: ``P_LOAD`` or ``P_STORE``.
    kind: int
    #: Index into ``trace.body`` / ``trace.addresses`` (the issuing
    #: instruction's position in the body).
    body_index: int
    #: Dense load-slot index (-1 for stores).
    lr_index: int
    #: Clock advances since the previous memory op (or the head of the
    #: body for the first slot).
    pregap: int
    #: ``(lr_index, delta)`` readiness terms, deduplicated per slot.
    terms: Tuple[Tuple[int, int], ...]


@dataclass
class EventStream:
    """One group's memory-event stream (everything but the policy)."""

    workload_name: str
    line_size: int
    body_len: int
    executions: int
    #: Loads / stores per body execution.
    n_loads: int
    n_stores: int
    slots: Tuple[SlotSpec, ...]
    #: Clock advances after the last memory op to the end of the body.
    tail_gap: int
    #: Readiness terms of the post-body stall sites (same shape as
    #: :attr:`SlotSpec.terms`).
    tail_terms: Tuple[Tuple[int, int], ...]
    #: Parallel to ``slots``: per-execution *line* addresses
    #: (``array('q')`` locally, ``memoryview('q')`` when attached from
    #: the shared-memory plane).
    lines: List[Sequence[int]]
    #: Compiled replay kernels, built lazily by
    #: :mod:`repro.cpu.replay` and cached here with the stream, keyed
    #: by ``(geometry, policy, effective_penalty)``; the C lane
    #: (:mod:`repro.cpu.replay_cnative`) keeps each machine's parameter
    #: block here under ``("cnative", geometry, policy,
    #: effective_penalty)``.  No entry may refer back to the stream:
    #: the stream cache frees an evicted stream by reference count.
    _replay_fns: Dict[object, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def instructions(self) -> int:
        return self.body_len * self.executions

    @property
    def references(self) -> int:
        """Memory references in the whole run."""
        return len(self.slots) * self.executions


@dataclass(frozen=True)
class FunctionalSummary:
    """Aggregate hit/miss outcome of a run on an immediate-install cache.

    Exact for the blocking (``mc=0`` family) policies, whose machine
    *is* the immediate-install machine; see the module docstring for
    why non-blocking siblings cannot reuse it.
    """

    geometry: CacheGeometry
    write_allocate: bool
    instructions: int
    load_hits: int
    load_misses: int
    store_hits: int
    store_misses: int
    evictions: int


# -- structure extraction ------------------------------------------------------


def _extract_structure(program: Sequence[tuple]) -> Optional[tuple]:
    """Walk the flattened program and summarize its dependency structure.

    Returns ``(slot_kinds, lr_indices, pregaps, terms, tail_gap,
    tail_terms, n_loads, n_stores)`` or ``None`` when the body has no
    memory ops.

    The walk runs the body **twice**: registers reaching the second
    pass carry their steady-state writers (the last writer in the
    body), so the second pass's records are exact for every execution.
    For the first execution a recorded term can name a load slot that
    has not yet run -- its rolling ready time is still 0, which can
    never bind, exactly as the interpreter's zero-initialized
    scoreboard never stalls there.  Each pass flushes its trailing
    sites into the tail record, mirroring the per-execution tail block
    the replay kernel emits.
    """
    mem_kinds: List[int] = []
    lr_indices: List[int] = []
    n_loads = 0
    for op in program:
        if op[0] == P_LOAD:
            mem_kinds.append(P_LOAD)
            lr_indices.append(n_loads)
            n_loads += 1
        elif op[0] == P_STORE:
            mem_kinds.append(P_STORE)
            lr_indices.append(-1)
    n_slots = len(mem_kinds)
    if not n_slots:
        return None
    n_stores = n_slots - n_loads

    #: register -> lr index of the load whose ready time it holds.
    writer: Dict[int, int] = {}
    #: (lr_index, advances-before-site) stall sites since the last
    #: memory op.
    pending: List[Tuple[int, int]] = []
    adv = 0
    pregaps = [0] * n_slots
    terms: List[Tuple[Tuple[int, int], ...]] = [()] * n_slots
    tail_gap = 0
    tail_terms: Tuple[Tuple[int, int], ...] = ()

    def _flush(gap: int) -> Tuple[Tuple[int, int], ...]:
        best: Dict[int, int] = {}
        for lr, at in pending:
            delta = gap - at
            if best.get(lr, -1) < delta:
                best[lr] = delta
        pending.clear()
        return tuple(sorted(best.items()))

    for _ in range(2):
        slot = 0
        for op in program:
            kind = op[0]
            if kind == P_SKIP:
                adv += op[1]
            elif kind == P_SCALAR:
                dst, srcs = op[1], op[2]
                for s in srcs:
                    w = writer.get(s)
                    if w is not None:
                        pending.append((w, adv))
                if dst >= 0:
                    w = writer.get(dst)
                    if w is not None:  # scoreboard WAW site
                        pending.append((w, adv))
                    # The scalar overwrite publishes ``cycle + 1``,
                    # which no later reader can stall on.
                    writer.pop(dst, None)
                adv += 1
            else:
                srcs = op[2] if kind == P_LOAD else op[1]
                for s in srcs:
                    w = writer.get(s)
                    if w is not None:
                        pending.append((w, adv))
                if kind == P_LOAD:
                    w = writer.get(op[1])
                    if w is not None:  # WAW on a pending fill
                        pending.append((w, adv))
                pregaps[slot] = adv
                terms[slot] = _flush(adv)
                if kind == P_LOAD:
                    writer[op[1]] = lr_indices[slot]
                adv = 0
                slot += 1
        tail_gap = adv
        tail_terms = _flush(adv)
        adv = 0

    return (mem_kinds, lr_indices, pregaps, terms, tail_gap, tail_terms,
            n_loads, n_stores)


def _mem_body_indices(trace: ExpandedTrace) -> List[int]:
    """Body indices of the memory ops, in body (== program) order."""
    return [j for j, buf in enumerate(trace.addresses) if buf is not None]


def _line_array(buf: Sequence[int], offset_bits: int) -> array:
    """Shift a byte-address buffer down to line addresses, as array('q')."""
    raw = np.frombuffer(buf, dtype=np.int64)
    shifted = raw >> offset_bits if offset_bits else raw
    out = array("q")
    out.frombytes(memoryview(np.ascontiguousarray(shifted)).cast("B"))
    return out


def build_stream(
    trace: ExpandedTrace,
    line_size: int,
    lines: Optional[List[Sequence[int]]] = None,
) -> Optional[EventStream]:
    """Build the event stream for one expanded trace.

    ``lines`` supplies pre-built line-address buffers (the
    shared-memory plane hands workers zero-copy ``memoryview`` windows
    here); when omitted they are computed from the trace's byte
    addresses.  Returns ``None`` for a body with no memory ops.
    """
    structure = _extract_structure(trace.program())
    if structure is None:
        return None
    (mem_kinds, lr_indices, pregaps, terms, tail_gap, tail_terms,
     n_loads, n_stores) = structure
    body_indices = _mem_body_indices(trace)
    offset_bits = line_size.bit_length() - 1
    if lines is None:
        lines = [
            _line_array(trace.addresses[j], offset_bits)
            for j in body_indices
        ]
    slots = tuple(
        SlotSpec(
            kind=mem_kinds[k],
            body_index=body_indices[k],
            lr_index=lr_indices[k],
            pregap=pregaps[k],
            terms=terms[k],
        )
        for k in range(len(mem_kinds))
    )
    if telemetry.enabled():
        _METRICS.get()["fusion.streams_built"].inc()
    return EventStream(
        workload_name=trace.workload_name,
        line_size=line_size,
        body_len=len(trace.body),
        executions=trace.executions,
        n_loads=n_loads,
        n_stores=n_stores,
        slots=slots,
        tail_gap=tail_gap,
        tail_terms=tail_terms,
        lines=list(lines),
    )


# -- functional classification -------------------------------------------------


def _lru_functional(
    stream: EventStream, geometry: CacheGeometry, write_allocate: bool
) -> Tuple[int, int, int, int, int]:
    """Classify every reference in Python; the fallback without a kernel.

    The walk of ``repro_classify`` in ``repro/cpu/kernel.c``, on the
    tag store of ``geometry`` (one tag per set, or an LRU stack):
    returns ``(load_hits, load_misses, store_hits, store_misses,
    evictions)``.
    """
    tags = make_tag_store(geometry)
    access = tags.access
    install = tags.install
    kinds = [slot.kind == P_LOAD for slot in stream.slots]
    load_misses = store_misses = evictions = 0
    for row in zip(*stream.lines):  # execution-major reference order
        for block, load in zip(row, kinds):
            if access(block):
                continue
            if load:
                load_misses += 1
            else:
                store_misses += 1
                if not write_allocate:
                    continue
            if install(block) is not None:
                evictions += 1
    loads = stream.n_loads * stream.executions
    stores = stream.n_stores * stream.executions
    return (loads - load_misses, load_misses, stores - store_misses,
            store_misses, evictions)


# -- process-level caches ------------------------------------------------------

#: Streams hold line buffers comparable in size to the trace cache's
#: address buffers, so the bound stays tight; summaries are a few
#: scalars.
_STREAM_CACHE = LRUCache(16)
_SUMMARY_CACHE = LRUCache(64)


def clear_stream_caches() -> None:
    """Drop cached event streams and functional summaries."""
    _STREAM_CACHE.clear()
    _SUMMARY_CACHE.clear()


def cache_sizes() -> Tuple[int, int]:
    """(streams, summaries) currently cached, for the telemetry gauges."""
    return len(_STREAM_CACHE), len(_SUMMARY_CACHE)


def stream_cached(
    workload: Workload,
    load_latency: int,
    scale: float = 1.0,
    line_size: int = 32,
) -> bool:
    """Whether this process already holds the group's event stream.

    Pool workers consult this before attaching a shared-memory stream
    segment, exactly like :func:`repro.sim.simulator.trace_cached`.
    """
    key = (group_key(workload, load_latency, scale), line_size)
    return _STREAM_CACHE.get(key) is not None


def install_stream(
    workload: Workload,
    load_latency: int,
    stream: EventStream,
    scale: float = 1.0,
) -> None:
    """Seed the stream cache with an externally assembled stream.

    The trace plane uses this to hand workers zero-copy streams built
    over shared memory; the caller guarantees the stream is
    bit-identical to what :func:`build_stream` would produce for the
    same key.
    """
    key = (group_key(workload, load_latency, scale), stream.line_size)
    _STREAM_CACHE.put(key, stream)


def event_stream(
    workload: Workload,
    load_latency: int,
    scale: float = 1.0,
    line_size: int = 32,
) -> Optional[EventStream]:
    """The group's event stream, built once and cached (or ``None``)."""
    from repro.sim.simulator import expand_workload

    key = (group_key(workload, load_latency, scale), line_size)
    stream = _STREAM_CACHE.get(key)
    if stream is None:
        if telemetry.enabled():
            _METRICS.get()["sim.stream_cache.misses"].inc()
        _, trace = expand_workload(workload, load_latency, scale=scale)
        stream = build_stream(trace, line_size)
        if stream is None:
            return None
        _STREAM_CACHE.put(key, stream)
    elif telemetry.enabled():
        _METRICS.get()["sim.stream_cache.hits"].inc()
    return stream


def functional_summary(
    workload: Workload,
    load_latency: int,
    scale: float,
    geometry: CacheGeometry,
    write_allocate: bool,
) -> Optional[FunctionalSummary]:
    """Cached functional classification for one (group, geometry) pair.

    One linear pass over the stream on an immediate-install cache of
    ``geometry``, per store policy: in the C kernel
    (:func:`repro.cpu.replay_cnative.classify_cnative`), or in Python
    (:func:`_lru_functional`) when no kernel can be had.  Both give
    the same aggregates for every geometry.
    """
    key = (group_key(workload, load_latency, scale), geometry,
           write_allocate)
    summary = _SUMMARY_CACHE.get(key)
    if summary is not None:
        return summary
    stream = event_stream(workload, load_latency, scale, geometry.line_size)
    if stream is None:
        return None
    counts = classify_cnative(stream, geometry, write_allocate)
    if counts is None:
        counts = _lru_functional(stream, geometry, write_allocate)
    summary = FunctionalSummary(geometry, write_allocate,
                                stream.instructions, *counts)
    _SUMMARY_CACHE.put(key, summary)
    return summary
