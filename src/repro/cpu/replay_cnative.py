"""The C replay and dual-issue lanes, and the C functional classification.

The replay runs the *entire* irregular recurrence -- MSHR occupancy,
primary/secondary merging, structural arbitration, fill scheduling,
LRU recency touches -- inside the one C kernel (``kernel.c``, built
and loaded by :mod:`repro.cpu.ckernel`).  It accepts exactly the
cells the scalar replay kernel accepts
(:func:`repro.cpu.replay.replay_supported`): direct-mapped and
set-associative geometries, write-around and write-miss-allocate
stores, resident and streaming models alike.  The machine
configuration reaches the kernel as a runtime parameter block
(:func:`_param_block`).  Its hit fast path and fence are its own
transcription of the scalar kernel's, and both are tested against
the reference loops (:mod:`repro.cpu.reference`).

The stream's static structure (slot kinds, readiness terms, pregaps)
is flattened once per stream into int64 tables; per-call state (tags,
load-ready registers, the output counter block) is allocated fresh so
a kernel invocation is a pure function of ``(stream, machine)``, like
the scalar replay.  The C function returns the same raw 22-counter
tuple the generated Python kernels produce, folded through
:func:`repro.cpu.replay.finish_replay`, so bit-identity is checked by
the same equivalence matrix and accounting identity as every other
lane.

Fallback is transparent and cause-tagged: ``policy`` for machines the
replay contract itself excludes, ``nocc`` when no C compiler is
available (``REPRO_CC`` override included), ``build`` when
compilation or loading failed.  All three degrade to the scalar
replay (or the reference dual-issue loop) with bit-identical results.

The blocking caches' closed form needs only hit/miss aggregates on an
immediate-install cache.  :func:`classify_cnative` computes them in
the same kernel (``repro_classify``) over the stream's cached kind
and line columns, for :func:`repro.sim.stream.functional_summary`.
It declines on the same ``nocc`` and ``build`` conditions, uncounted
(a summary is a per-group precompute, not a cell), and the caller
then classifies in Python.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.core.classify import StructuralCause
from repro.core.stats import MissStats
from repro.cpu import ckernel
from repro.cpu.isa import NUM_REGS, OpClass
from repro.cpu.replay import finish_replay, replay_supported
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
    3: "replay kernel allocation failed",
}

#: Cause order used when folding the C cause counters back into the
#: scalar kernel's ``causes`` dict.
_CAUSES = (
    StructuralCause.NO_FETCH_SLOT,
    StructuralCause.NO_MISS_SLOT,
    StructuralCause.NO_SET_SLOT,
    StructuralCause.NO_DEST_FIELD,
)

#: ``kind`` codes of the dual-issue driver; every other op is 0.
_MEMORY_KIND = {OpClass.LOAD: 1, OpClass.STORE: 2}


def _count_fallback(cause: str) -> None:
    from repro.sim import engines as engines_mod

    engines_mod.count_cnative_fallback(cause)


def _as_i64(buf) -> np.ndarray:
    return np.frombuffer(buf, dtype=np.int64)


def _stream_tables(stream: "EventStream"):
    """Flatten the stream's static structure into C-readable tables.

    Cached on the stream object (like the kernel cache) so policy
    siblings share one flattening.
    """
    tables = getattr(stream, "_cnative_tables", None)
    if tables is not None:
        return tables
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
    tables = (kind, slr, pregap, term_start, tlr, tdelta, lines)
    stream._cnative_tables = tables
    return tables


def _addr_tables(stream: "EventStream", trace: "ExpandedTrace"):
    """Per-slot byte-address columns (limited field layouts only)."""
    addrs = getattr(stream, "_cnative_addrs", None)
    if addrs is None:
        addrs = [_as_i64(trace.addresses[s.body_index])
                 for s in stream.slots]
        stream._cnative_addrs = addrs
    return addrs


def _param_block(config: "MachineConfig", n: int, tail_gap: int = 0):
    """The runtime parameter array (layout: ``ckernel.PARAM_SLOTS``).

    ``n`` counts the stream's slots (replay) or the body's
    instructions (dual issue); the caller sets ``it1``.  An absent
    limit is ``ckernel.NO_LIMIT`` and unported fills are ``ports=0``.
    """
    geometry = config.geometry
    policy = config.policy
    layout = policy.layout

    def limit(value: Optional[int]) -> int:
        return ckernel.NO_LIMIT if value is None else value

    nsub = 1 if layout.unlimited else layout.n_subblocks
    return _pack({
        "n_slots": n,
        "tail_gap": tail_gap,
        "setmask": geometry.num_sets - 1,
        "ways": geometry.ways,
        "maxm": limit(policy.max_misses),
        "maxf": limit(policy.max_fetches),
        "maxs": limit(policy.max_fetches_per_set),
        "nsub": nsub,
        "sublim": limit(layout.misses_per_subblock),
        "line_mask": geometry.line_size - 1,
        "sub_shift": (geometry.line_size // nsub).bit_length() - 1,
        "ports": policy.fill_ports or 0,
        "penalty": config.effective_penalty + policy.fill_overhead,
        "offset_bits": geometry.offset_bits,
        "blocking": policy.blocking,
        "perfect": config.perfect_cache,
        "limited": not layout.unlimited,
        "wma": policy.write_allocate_blocking,
    })


def _pack(values) -> np.ndarray:
    """The parameter array from ``{slot: value}``; absent slots are 0."""
    return np.array([values.get(name, 0) for name in ckernel.PARAM_SLOTS],
                    dtype=np.int64)


def _tag_arrays(geometry: "CacheGeometry"):
    """Empty tags, plus per-set LRU lengths when set-associative."""
    if geometry.is_direct_mapped:
        return np.full(geometry.num_sets, -1, dtype=np.int64), None
    return (np.full(geometry.num_sets * geometry.ways, -1, dtype=np.int64),
            np.zeros(geometry.num_sets, dtype=np.int64))


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


def build_cnative_fn(
    stream: "EventStream", trace: "ExpandedTrace", config: "MachineConfig"
):
    """Bind one (stream, machine) pair to the compiled kernel.

    Raises :class:`~repro.cpu.ckernel.KernelBuildError` when the
    kernel cannot be built; callers translate that into a cause-tagged
    fallback.
    """
    kernel = ckernel.ensure_kernel()
    kind, slr, pregap, term_start, tlr, tdelta, lines = \
        _stream_tables(stream)
    limited = not config.policy.layout.unlimited
    addrs = _addr_tables(stream, trace) if limited else []
    p = _param_block(config, len(stream.slots), stream.tail_gap)
    n_loads = stream.n_loads

    def run(it1: int) -> Tuple:
        p[0] = it1
        tags, set_len = _tag_arrays(config.geometry)
        lr = np.zeros(max(n_loads, 1), dtype=np.int64)
        out = np.zeros(ckernel.OUT_SLOTS, dtype=np.int64)
        rc = kernel.invoke(p, kind, slr, pregap, term_start, tlr,
                           tdelta, lines, addrs, tags, set_len, lr, out)
        if rc != 0:
            raise SimulationError(
                _KERNEL_ERRORS.get(rc, f"replay kernel error {rc}"))
        return _fold_raw(out)

    return run


def run_cnative(
    stream: "EventStream", trace: "ExpandedTrace", config: "MachineConfig"
) -> Optional[Tuple[MissStats, int, int, int]]:
    """Replay one machine through the C kernel; ``None`` = fall back.

    Same contract and per-stream kernel cache as
    :func:`repro.cpu.replay.run_replay`, under a distinct key.
    Declines (unsupported policy, no compiler, failed build) are
    counted under ``engine.cnative.fallback.*`` when telemetry is on.
    """
    if not replay_supported(config):
        _count_fallback("policy")
        return None
    key = ("cnative", config.geometry, config.policy,
           config.effective_penalty)
    fn = stream._replay_fns.get(key)
    if fn is None:
        if not ckernel.kernels_available():
            _count_fallback("nocc")
            return None
        try:
            fn = build_cnative_fn(stream, trace, config)
        except ckernel.KernelBuildError:
            _count_fallback("build")
            return None
        stream._replay_fns[key] = fn
    return finish_replay(stream.instructions, fn(stream.executions))


def run_dual_issue(
    trace: "ExpandedTrace", config: "MachineConfig"
) -> Optional[Tuple[MissStats, int, int, int]]:
    """Run one dual-issue cell in the C driver; ``None`` = fall back.

    Returns ``(stats, cycles, instructions, truedep)`` bit-identical to
    :func:`repro.cpu.reference.run_dual_issue_reference` on the cell's
    handler.  Declines are counted under the same causes as
    :func:`run_cnative`'s (``policy`` for a cell off the dual-issue
    lane, such as a finite write buffer).
    """
    from repro.sim.engines import cell_lane

    if cell_lane(config) != "dual":
        _count_fallback("policy")
        return None
    if not ckernel.kernels_available():
        _count_fallback("nocc")
        return None
    try:
        kernel = ckernel.ensure_kernel()
    except ckernel.KernelBuildError:
        _count_fallback("build")
        return None
    body = trace.body
    p = _param_block(config, len(body))
    p[0] = trace.executions
    kind = np.array([_MEMORY_KIND.get(op.op, 0) for op in body],
                    dtype=np.int64)
    dst = np.array([-1 if op.dst is None else op.dst for op in body],
                   dtype=np.int64)
    src_start = np.cumsum([0] + [len(op.srcs) for op in body],
                          dtype=np.int64)
    src = np.array([r for op in body for r in op.srcs], dtype=np.int64)
    addrs = [np.ascontiguousarray([0] if a is None else a, dtype=np.int64)
             for a in trace.addresses]
    if len(addrs) != len(body) or any(
            k and len(a) < trace.executions for k, a in zip(kind, addrs)):
        raise SimulationError("trace addresses do not cover the run")
    tags, set_len = _tag_arrays(config.geometry)
    reg_ready = np.zeros(NUM_REGS, dtype=np.int64)
    out = np.zeros(ckernel.OUT_SLOTS, dtype=np.int64)
    rc = kernel.invoke_dual(p, kind, dst, src_start, src, addrs, tags,
                            set_len, reg_ready, out)
    if rc != 0:
        raise SimulationError(
            _KERNEL_ERRORS.get(rc, f"dual-issue kernel error {rc}"))
    stats, cycles, instructions, _ = finish_replay(
        len(body) * trace.executions, _fold_raw(out))
    stats.blocking_misses = int(out[41])
    stats.blocking_stall_cycles = stats.blocking_misses * int(
        p[ckernel.PARAM_SLOTS.index("penalty")])
    return stats, cycles, instructions, int(out[40])


def classify_cnative(
    stream: "EventStream", geometry: "CacheGeometry", write_allocate: bool
) -> Optional[Tuple[int, int, int, int, int]]:
    """Classify a stream on an immediate-install cache in C.

    Returns ``(load_hits, load_misses, store_hits, store_misses,
    evictions)`` -- the aggregates of
    :class:`repro.sim.stream.FunctionalSummary` -- or ``None`` when no
    kernel can be had (no compiler, failed build), on the same
    conditions as :func:`run_cnative`.  A decline counts nothing: the
    classification is a per-summary precompute, not a cell.
    """
    if not ckernel.kernels_available():
        return None
    try:
        kernel = ckernel.ensure_kernel()
    except ckernel.KernelBuildError:
        return None
    kind, _, _, _, _, _, lines = _stream_tables(stream)
    if len(lines) != len(kind) or any(
            len(column) < stream.executions for column in lines):
        raise SimulationError("stream lines do not cover the run")
    p = _pack({
        "it1": stream.executions,
        "n_slots": len(stream.slots),
        "setmask": geometry.num_sets - 1,
        "ways": geometry.ways,
        "wma": write_allocate,
    })
    tags, set_len = _tag_arrays(geometry)
    out = np.zeros(5, dtype=np.int64)
    kernel.invoke_classify(p, kind, lines, tags, set_len, out)
    return tuple(int(x) for x in out)
