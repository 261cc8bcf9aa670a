"""The C replay and dual-issue lanes, and the C functional classification.

The replay runs the *entire* irregular recurrence -- MSHR occupancy,
primary/secondary merging, structural arbitration, fill scheduling,
LRU recency touches -- inside the one C kernel (``kernel.c``, built
and loaded by :mod:`repro.cpu.ckernel`), for every machine of the
``replay`` lane (:func:`repro.sim.engines.cell_lane`).  A machine
reaches the kernel as a runtime parameter block (:func:`_param_block`)
that packs the scalar replay's one derivation of its constants
(:class:`repro.cpu.replay._KernelShape`), so both replays, and the
dual-issue driver, refuse exactly the machines the miss handler
refuses.  The kernel's hit fast path and fence are its own
transcription of the scalar kernel's, and both are tested against the
reference loops (:mod:`repro.cpu.reference`).

The stream's static structure (slot kinds, readiness terms, pregaps)
and its line columns are flattened into int64 tables and cast to C
pointers once per stream (:func:`_stream_args`), a dual-issue body's
once per trace (:func:`_body_args`).  A cast addresses a numpy buffer,
not the kernel, so it serves every load of the kernel; no cached
entry refers back to its stream or trace.  Per call only the
parameter block, the load-ready registers and the output counter
block are fresh, and the kernel allocates and frees its own tag
store, so a kernel invocation is a pure function of ``(stream,
machine)``, like the scalar replay.  Column lengths are checked
against the run before any pointer reaches C.  The C function returns
the same raw 22-counter tuple the generated Python kernels produce,
folded through :func:`repro.cpu.replay.finish_replay`, so bit-identity
is checked by the same equivalence matrix and accounting identity as
every other lane.

Every entry gets its kernel from :func:`repro.cpu.ckernel.kernel_or_cause`
and hands its cause back when none can be had (no compiler, the
``REPRO_CC`` override included, or a failed build): the simulator then
degrades the cell to the scalar replay or the reference dual-issue
loop, bit-identically, and names the cause in its telemetry outcome.
:func:`classify_cnative` computes the blocking caches' hit and miss
aggregates in the same kernel (``repro_classify``) over the stream's
cached columns; without a kernel the caller classifies in Python.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.core.classify import StructuralCause
from repro.core.stats import MissStats
from repro.cpu import ckernel
from repro.cpu.isa import NUM_REGS, OpClass
from repro.cpu.replay import _KernelShape, finish_replay
from repro.errors import SimulationError
from repro.sim.trace import P_LOAD

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.geometry import CacheGeometry
    from repro.sim.config import MachineConfig
    from repro.sim.stream import EventStream
    from repro.sim.trace import ExpandedTrace

#: Kernel error codes (see ``kernel.c``) -> messages matching the
#: scalar kernel's SimulationError sites.
_KERNEL_ERRORS = {
    1: "per-set limit hit with no fetch in the set",
    2: "structural stall made no progress",
    3: "kernel allocation failed",
}

#: Cause order used when folding the C cause counters back into the
#: scalar kernel's ``causes`` dict.
_CAUSES = (
    StructuralCause.NO_FETCH_SLOT,
    StructuralCause.NO_MISS_SLOT,
    StructuralCause.NO_SET_SLOT,
    StructuralCause.NO_DEST_FIELD,
)

#: Index of the limited-field-layout flag in the parameter block.
_LIMITED = ckernel.PARAM_SLOTS.index("limited")

#: ``kind`` codes of the dual-issue driver; every other op is 0.
_MEMORY_KIND = {OpClass.LOAD: 1, OpClass.STORE: 2}


def _as_i64(buf) -> np.ndarray:
    return np.frombuffer(buf, dtype=np.int64)


def _stream_args(stream: "EventStream"):
    """The stream's static tables as C pointers, cast once per stream.

    Returns ``(args, covered)``: ``args`` are ``repro_replay``'s slot
    kinds, load-ready indices, pregaps, the three term arrays and the
    line columns, in its argument order; ``covered`` is how many
    executions every line column covers.  Cached on the stream, with
    the int64 tables the pointers address, so policy siblings and
    classifications share one flattening and one cast.
    """
    cached = getattr(stream, "_cnative_args", None)
    if cached is not None:
        return cached[0]
    slots = stream.slots
    n = len(slots)
    kind = np.fromiter(
        (1 if s.kind == P_LOAD else 0 for s in slots), dtype=np.int64,
        count=n,
    )
    slr = np.fromiter((s.lr_index for s in slots), dtype=np.int64, count=n)
    pregap = np.fromiter((s.pregap for s in slots), dtype=np.int64, count=n)
    term_start = np.zeros(n + 2, dtype=np.int64)
    term_lr: List[int] = []
    term_delta: List[int] = []
    for k, slot in enumerate(slots):
        term_start[k] = len(term_lr)
        for m, d in slot.terms:
            term_lr.append(m)
            term_delta.append(d)
    term_start[n] = len(term_lr)
    for m, d in stream.tail_terms:
        term_lr.append(m)
        term_delta.append(d)
    term_start[n + 1] = len(term_lr)
    tlr = np.asarray(term_lr, dtype=np.int64)
    tdelta = np.asarray(term_delta, dtype=np.int64)
    lines = [_as_i64(buf) for buf in stream.lines]
    tables = (kind, slr, pregap, term_start, tlr, tdelta)
    args = tuple(map(ckernel.pointer, tables)) + (
        ckernel.pointer_array(lines),)
    entry = (args, _covered(lines, n))
    stream._cnative_args = (entry, tables, lines)
    return entry


def _addr_args(stream: "EventStream", trace: "ExpandedTrace"):
    """Per-slot byte-address columns (limited field layouts only) as a
    C pointer array, cast once per stream; returns ``(pointer,
    covered)`` like :func:`_stream_args`."""
    cached = getattr(stream, "_cnative_addrs", None)
    if cached is not None:
        return cached[0]
    addrs = [_as_i64(trace.addresses[s.body_index]) for s in stream.slots]
    entry = (ckernel.pointer_array(addrs),
             _covered(addrs, len(stream.slots)))
    stream._cnative_addrs = (entry, addrs)
    return entry


def _covered(columns, n: int) -> int:
    """Executions that all ``n`` per-slot columns cover (-1 when a
    column is missing)."""
    if len(columns) != n:
        return -1
    return min((len(c) for c in columns), default=ckernel.NO_LIMIT)


def _param_block(config: "MachineConfig", n: int, tail_gap: int = 0):
    """``config``'s :class:`~repro.cpu.replay._KernelShape`, packed as
    the runtime parameter array (layout: ``ckernel.PARAM_SLOTS``).

    ``n`` counts the stream's slots (replay) or the body's
    instructions (dual issue); the caller sets ``it1``.  An absent
    limit is ``ckernel.NO_LIMIT`` and unported fills are ``ports=0``.
    Raises what the shape raises for a machine the handler refuses.
    """
    shape = _KernelShape(config)

    def limit(value: Optional[int]) -> int:
        return ckernel.NO_LIMIT if value is None else value

    return _pack({
        "n_slots": n,
        "tail_gap": tail_gap,
        "setmask": shape.setmask,
        "ways": shape.ways,
        "maxm": limit(shape.maxm),
        "maxf": limit(shape.maxf),
        "maxs": limit(shape.maxs),
        "nsub": shape.nsub,
        "sublim": limit(shape.sublim),
        "line_mask": shape.line_mask,
        "sub_shift": shape.sub_shift,
        "ports": shape.ports or 0,
        "penalty": shape.penalty,
        "offset_bits": shape.offset_bits,
        "blocking": shape.blocking,
        "perfect": shape.perfect,
        "limited": shape.limited,
        "wma": shape.wma,
    })


def _pack(values) -> np.ndarray:
    """The parameter array from ``{slot: value}``; absent slots are 0."""
    return np.array([values.get(name, 0) for name in ckernel.PARAM_SLOTS],
                    dtype=np.int64)


def _fold_raw(out: np.ndarray) -> Tuple:
    """Map the C output block onto the shared 22-counter raw tuple."""
    causes = {}
    for cause in _CAUSES:
        n = int(out[6 + int(cause)])
        if n:
            causes[cause] = n
    return (
        int(out[0]),                       # cycle
        int(out[1]), int(out[2]),          # loads, load_hits
        int(out[3]), int(out[4]), int(out[5]),  # primary/secondary/structural
        causes,
        int(out[11]), int(out[12]), int(out[13]),  # stores / hits / misses
        int(out[14]), int(out[15]), int(out[16]),  # struct/wa stall, wb
        int(out[17]), int(out[18]),        # fetches_launched, evictions
        [int(x) for x in out[19:27]],      # miss_hist
        [int(x) for x in out[27:35]],      # fetch_hist
        int(out[35]), int(out[36]),        # max_m, max_f
        int(out[37]), int(out[38]), int(out[39]),  # fast counters
    )


def bind_machine(
    stream: "EventStream", config: "MachineConfig"
) -> Tuple[Optional[tuple], Optional[str]]:
    """``((kernel, parameter block), None)`` for ``config`` on
    ``stream``, or ``(None, cause)`` when no kernel can be had
    (:func:`repro.cpu.ckernel.kernel_or_cause`).

    Bound once per stream and kept in its replay-kernel cache under a
    key of its own, so only a machine's first call asks for the
    kernel; a declined machine is not kept.
    """
    key = ("cnative", config.geometry, config.policy,
           config.effective_penalty)
    machine = stream._replay_fns.get(key)
    if machine is None:
        kernel, cause = ckernel.kernel_or_cause()
        if kernel is None:
            return None, cause
        machine = (kernel, _param_block(config, len(stream.slots),
                                        stream.tail_gap))
        stream._replay_fns[key] = machine
    return machine, None


def run_cnative(
    stream: "EventStream", trace: "ExpandedTrace", config: "MachineConfig"
) -> Optional[Tuple[MissStats, int, int, int]]:
    """Replay one ``replay``-lane machine in the C kernel; ``None``
    when no kernel can be had (:func:`bind_machine` names the cause).

    Same contract as :func:`repro.cpu.replay.run_replay`.
    """
    machine, _ = bind_machine(stream, config)
    if machine is None:
        return None
    kernel, p = machine
    args, covered = _stream_args(stream)
    addrs = None
    if p[_LIMITED]:
        addrs, addr_covered = _addr_args(stream, trace)
        covered = min(covered, addr_covered)
    if covered < stream.executions:
        raise SimulationError("stream columns do not cover the run")
    p[0] = stream.executions
    lr = np.zeros(max(stream.n_loads, 1), dtype=np.int64)
    out = np.zeros(ckernel.OUT_SLOTS, dtype=np.int64)
    rc = kernel.invoke(p, *args, addrs, lr, out)
    if rc != 0:
        raise SimulationError(
            _KERNEL_ERRORS.get(rc, f"replay kernel error {rc}"))
    return finish_replay(stream.instructions, _fold_raw(out))


def _body_args(trace: "ExpandedTrace"):
    """The dual-issue body's tables as C pointers, cast once per trace.

    Returns ``(args, covered)``: ``args`` are ``repro_dual``'s op
    kinds, destinations, source offsets, sources and address columns
    (NULL for a non-memory op), in its argument order; ``covered`` is
    how many executions every memory op's column covers.  Cached on
    the trace like :func:`_stream_args` on the stream.
    """
    cached = getattr(trace, "_cnative_body", None)
    if cached is not None:
        return cached[0]
    body = trace.body
    kind = np.array([_MEMORY_KIND.get(op.op, 0) for op in body],
                    dtype=np.int64)
    dst = np.array([-1 if op.dst is None else op.dst for op in body],
                   dtype=np.int64)
    src_start = np.cumsum([0] + [len(op.srcs) for op in body],
                          dtype=np.int64)
    src = np.array([r for op in body for r in op.srcs], dtype=np.int64)
    addrs = [np.ascontiguousarray([] if a is None else a, dtype=np.int64)
             if k else None for k, a in zip(kind, trace.addresses)]
    covered = (min((len(a) for a in addrs if a is not None),
                   default=ckernel.NO_LIMIT)
               if len(trace.addresses) == len(body) else -1)
    tables = (kind, dst, src_start, src)
    args = tuple(map(ckernel.pointer, tables)) + (
        ckernel.pointer_array(addrs),)
    entry = (args, covered)
    trace._cnative_body = (entry, tables, addrs)
    return entry


def run_dual_issue(
    trace: "ExpandedTrace", config: "MachineConfig"
) -> Tuple[Optional[Tuple[MissStats, int, int, int]], Optional[str]]:
    """Run one ``dual``-lane cell in the C driver.

    Returns ``(out, None)``, where ``out`` is ``(stats, cycles,
    instructions, truedep)`` bit-identical to
    :func:`repro.cpu.reference.run_dual_issue_reference` on the cell's
    handler, or ``(None, cause)`` when no kernel can be had
    (:func:`repro.cpu.ckernel.kernel_or_cause`).
    """
    kernel, cause = ckernel.kernel_or_cause()
    if kernel is None:
        return None, cause
    body = trace.body
    args, covered = _body_args(trace)
    if covered < trace.executions:
        raise SimulationError("trace addresses do not cover the run")
    p = _param_block(config, len(body))
    p[0] = trace.executions
    reg_ready = np.zeros(NUM_REGS, dtype=np.int64)
    out = np.zeros(ckernel.OUT_SLOTS, dtype=np.int64)
    rc = kernel.invoke_dual(p, *args, reg_ready, out)
    if rc != 0:
        raise SimulationError(
            _KERNEL_ERRORS.get(rc, f"dual-issue kernel error {rc}"))
    stats, cycles, instructions, _ = finish_replay(
        len(body) * trace.executions, _fold_raw(out))
    stats.blocking_misses = int(out[41])
    stats.blocking_stall_cycles = stats.blocking_misses * int(
        p[ckernel.PARAM_SLOTS.index("penalty")])
    return (stats, cycles, instructions, int(out[40])), None


def classify_cnative(
    stream: "EventStream", geometry: "CacheGeometry", write_allocate: bool
) -> Optional[Tuple[int, int, int, int, int]]:
    """Classify a stream on an immediate-install cache in C.

    Returns ``(load_hits, load_misses, store_hits, store_misses,
    evictions)`` -- the aggregates of
    :class:`repro.sim.stream.FunctionalSummary` -- or ``None`` when no
    kernel can be had (:func:`repro.cpu.ckernel.kernel_or_cause`).
    """
    kernel, _ = ckernel.kernel_or_cause()
    if kernel is None:
        return None
    (kind, _, _, _, _, _, lines), covered = _stream_args(stream)
    if covered < stream.executions:
        raise SimulationError("stream lines do not cover the run")
    p = _pack({
        "it1": stream.executions,
        "n_slots": len(stream.slots),
        "setmask": geometry.num_sets - 1,
        "ways": geometry.ways,
        "wma": write_allocate,
    })
    out = np.zeros(5, dtype=np.int64)
    rc = kernel.invoke_classify(p, kind, lines, out)
    if rc != 0:
        raise SimulationError(
            _KERNEL_ERRORS.get(rc, f"classify kernel error {rc}"))
    return tuple(int(x) for x in out)
