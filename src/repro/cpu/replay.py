"""Policy replay: one compiled timing kernel per (stream, machine) pair.

The second half of policy-sibling fusion (see :mod:`repro.sim.stream`
and ``docs/performance.md``).  A group of sweep cells that share
(workload, load latency, scale, line size) also share their
instruction stream, address stream, and dependency structure; only
the MSHR policy and cache geometry differ.  The stream pass captures
the shared part once; this module compiles, per sibling, a *replay
kernel* -- a specialized function over the stream's memory slots that
advances that sibling's whole timing model (tag state, fetch FIFO,
miss merging, structural arbitration, fill scheduling, occupancy
histograms) with every policy limit folded in as a constant, no
:class:`~repro.core.handler.MissHandler` call in the loop.

Exactness is by construction, mirrored clause for clause:

* each memory slot issues at ``max(cycle + pregap, max(ready[lr] +
  delta))`` -- the closed form of the interpreter's stall checks
  between two memory ops (advances are compile-time constants, stall
  checks are maxima, and composing "advance then max" chains yields
  this single max; the stream pass records which load slots can reach
  each check and with what cumulative advance);
* a hit before the fence -- the earliest outstanding fill time, up to
  which the handler's ``_drain`` is a no-op, so no tag state can
  change -- is accounted inline as a 1-cycle hit; stores are graded
  (write-around stores before the fence are inline hit or miss,
  write-miss-allocate misses take the slow path); and with an empty
  fetch FIFO the direct-mapped *turbo lane* collapses whole all-hit
  body executions into arithmetic (see ``docs/performance.md``), so
  every slow access happens at the cycle the reference loop presents
  it;
* the slow paths transcribe :meth:`MissHandler.load` /
  :meth:`MissHandler.store` statement for statement -- same drain
  points, same histogram integration boundaries, same structural
  causes, same stall arithmetic -- with the handler's attribute
  traffic replaced by closure locals;
* true-dependency stalls are not metered per check: the single-issue
  accounting identity (``cycles == instructions + truedep +
  memory_stall_cycles``, asserted by ``verify_accounting`` on every
  run) recovers the total exactly from the final cycle count.

Kernels require the ideal write buffer (a finite buffer's stalls
depend on per-push timing the fast path cannot absorb) and a
non-blocking policy; blocking policies short-circuit further -- their
machine *is* the immediate-install cache, so a
:class:`~repro.sim.stream.FunctionalSummary` plus
:meth:`~repro.core.handler.MissHandler.absorb_blocking_run`
reproduces the whole run in O(1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.core.classify import StructuralCause
from repro.core.handler import FAR_FUTURE, MissHandler
from repro.core.policies import UNLIMITED_LAYOUT
from repro.core.stats import MissStats
from repro.errors import SimulationError
from repro.sim.trace import P_LOAD

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.config import MachineConfig
    from repro.sim.stream import EventStream, FunctionalSummary
    from repro.sim.trace import ExpandedTrace


def _emit(lines: List[str], indent: int, block: str) -> None:
    """Append a template block, re-indented, blank lines dropped."""
    pad = "    " * indent
    for raw in block.strip("\n").split("\n"):
        if raw.strip():
            lines.append(pad + raw)


def _emit_issue_time(lines: List[str], indent: int, pregap: int, terms) -> None:
    """Emit ``t = max(cycle + pregap, max(lr<m> + d))`` for one slot."""
    pad = "    " * indent
    if pregap:
        lines.append(f"{pad}t = cycle + {pregap}")
    else:
        lines.append(f"{pad}t = cycle")
    for m, d in terms:
        lines.append(f"{pad}v = lr{m} + {d}" if d else f"{pad}v = lr{m}")
        lines.append(f"{pad}if v > t:")
        lines.append(f"{pad}    t = v")


class _KernelShape:
    """The constants of one machine, and its guard.

    The one derivation of both: the scalar kernels fold the constants
    in as literals, and the C kernel reads them from its parameter
    block (:func:`repro.cpu.replay_cnative._param_block`).  Refuses,
    with the miss handler's own error, every machine the handler
    refuses.
    """

    def __init__(self, config: "MachineConfig") -> None:
        geometry = config.geometry
        policy = config.policy
        self.dm = geometry.is_direct_mapped
        self.setmask = geometry.num_sets - 1
        self.ways = geometry.ways
        self.offset_bits = geometry.offset_bits
        self.maxm = policy.max_misses
        self.maxf = policy.max_fetches
        self.maxs = policy.max_fetches_per_set
        # A perfect cache runs no miss handler, so no layout binds it.
        layout = UNLIMITED_LAYOUT if config.perfect_cache else policy.layout
        self.limited = not layout.unlimited
        # An unlimited layout counts no fields: one sub-block, always 0.
        self.nsub = layout.n_subblocks if self.limited else 1
        self.sublim = layout.misses_per_subblock
        if self.nsub > geometry.line_size:
            raise SimulationError(
                "field layout has more sub-blocks than bytes per line"
            )
        sub_size = geometry.line_size // self.nsub
        self.sub_shift = sub_size.bit_length() - 1
        self.line_mask = geometry.line_size - 1
        self.ports = policy.fill_ports
        self.penalty = config.effective_penalty + policy.fill_overhead
        self.blocking = policy.blocking
        self.perfect = config.perfect_cache
        #: Store grading with the ideal write buffer: write-miss
        #: allocate grades only hits inline (its misses fetch and
        #: stall); write-around grades hits and misses inline (its
        #: stores never fetch or install).
        self.wma = policy.write_allocate_blocking


def _emit_state_init(w, shape: "_KernelShape", n_loads: int) -> None:
    _emit(w, 2, """
loads = 0
load_hits = 0
primary = 0
secondary = 0
structural = 0
causes = {}
stores = 0
store_hits = 0
store_misses = 0
structural_stall = 0
wa_stall = 0
wb_pushes = 0
fetches_launched = 0
evictions = 0
max_m = 0
max_f = 0
miss_hist = [0] * 8
fetch_hist = [0] * 8
last_t = 0
n_misses_out = 0
fifo = []
by_block = {}
fence = FAR_FUTURE
fast_loads = 0
fast_stores = 0
fast_smiss = 0
skip = 0
cycle = 0
it = 0
""")
    if shape.maxs is not None:
        w.append("        per_set = {}")
    if shape.dm:
        w.append(f"        tags_ = [None] * {shape.setmask + 1}")
        w.append("        res = set()")
    else:
        w.append(f"        S = [[] for _ in range({shape.setmask + 1})]")
    for j in range(n_loads):
        w.append(f"        lr{j} = 0")


def _emit_advance(w, indent: int) -> None:
    """The handler's ``_advance(t)`` with ``t`` in local ``t``."""
    _emit(w, indent, """
dt = t - last_t
if dt > 0:
    nf = len(fifo)
    nm = n_misses_out
    fetch_hist[nf if nf < 8 else 7] += dt
    miss_hist[nm if nm < 8 else 7] += dt
    last_t = t
""")


def _emit_install(w, indent: int, shape: "_KernelShape") -> None:
    """``tags.install(b)`` with eviction counting, block in ``b``."""
    if shape.dm:
        _emit(w, indent, f"""
i = b & {shape.setmask}
old = tags_[i]
if old != b:
    tags_[i] = b
    if old is not None:
        res.discard(old)
        evictions += 1
    res.add(b)
""")
    else:
        _emit(w, indent, f"""
ways = S[b & {shape.setmask}]
if b in ways:
    ways.remove(b)
    ways.insert(0, b)
else:
    ways.insert(0, b)
    if len(ways) > {shape.ways}:
        ways.pop()
        evictions += 1
""")


def _emit_drain(w, shape: "_KernelShape") -> None:
    """The handler's ``_drain`` as a closure maintaining ``fence``."""
    _emit(w, 2, """
def drain(now):
    nonlocal last_t, n_misses_out, evictions, fence
    while fifo and fifo[0][2] <= now:
        f = fifo[0]
        t = f[2]
""")
    _emit_advance(w, 4)
    _emit(w, 4, """
del fifo[0]
b = f[0]
del by_block[b]
n_misses_out -= f[3]
""")
    if shape.maxs is not None:
        _emit(w, 4, """
si = f[1]
rem = per_set.get(si, 0) - 1
if rem > 0:
    per_set[si] = rem
else:
    per_set.pop(si, None)
""")
    _emit_install(w, 4, shape)
    _emit(w, 3, """
fence = fifo[0][2] if fifo else FAR_FUTURE
""")


def _emit_access(w, indent: int, shape: "_KernelShape", hit_block: str) -> None:
    """``tags.access(b)``: on hit run ``hit_block``, else fall through."""
    if shape.dm:
        _emit(w, indent, "if b in res:")
        _emit(w, indent + 1, hit_block)
    else:
        _emit(w, indent, f"""
ways = S[b & {shape.setmask}]
if b in ways:
    ways.remove(b)
    ways.insert(0, b)
""")
        _emit(w, indent + 1, hit_block)


def _emit_miss_load(w, shape: "_KernelShape") -> None:
    """Transcribe ``MissHandler.load`` (non-blocking) as a closure.

    ``now`` is the post-stall issue cycle; returns ``(next_issue,
    data_ready)``.  Every policy limit is folded: absent limits drop
    their checks, an unlimited field layout drops the sub-block
    machinery (and the ``sub`` argument with it), and unreachable
    structural arms are not emitted at all.
    """
    sub_arg = ", sub" if shape.limited else ""
    _emit(w, 2, f"""
def miss_load(b, now{sub_arg}):
    nonlocal loads, load_hits, secondary, primary, structural
    nonlocal structural_stall, fetches_launched, max_m, max_f
    nonlocal n_misses_out, last_t, fence, evictions
    loads += 1
    if fence <= now:
        drain(now)
""")
    _emit_access(w, 3, shape, """
load_hits += 1
return now + 1, now + 1
""")
    _emit(w, 3, """
t = now
stalled = False
s_cause = None
while True:
    f = by_block.get(b)
    if f is not None:
""")
    # -- merge (secondary-miss) path, handler.load's first arm --------
    merge_always_ok = shape.maxm is None and not shape.limited
    if shape.limited:
        _emit(w, 5, """
counts = f[4]
free = counts is None or counts[sub] < %d
""" % shape.sublim)
    if shape.maxm is not None:
        _emit(w, 5, f"miss_ok = n_misses_out < {shape.maxm}")
    if merge_always_ok:
        _emit(w, 5, "if True:")
    elif shape.maxm is None:
        _emit(w, 5, "if free:")
    elif not shape.limited:
        _emit(w, 5, "if miss_ok:")
    else:
        _emit(w, 5, "if miss_ok and free:")
    _emit_advance(w, 6)
    _emit(w, 6, """
position = f[3]
f[3] = position + 1
n_misses_out += 1
""")
    if shape.limited:
        _emit(w, 6, """
if counts is None:
    counts = [0] * %d
    f[4] = counts
counts[sub] += 1
""" % shape.nsub)
    _emit(w, 6, """
if n_misses_out > max_m:
    max_m = n_misses_out
""")
    if shape.ports is None:
        _emit(w, 6, "ready = f[2]")
    else:
        _emit(w, 6, f"ready = f[2] + position // {shape.ports}")
    _emit(w, 6, """
if stalled:
    structural += 1
    causes[s_cause] = causes.get(s_cause, 0) + 1
    structural_stall += t - now
    return t + 1, ready
secondary += 1
return t + 1, ready
""")
    if not merge_always_ok:
        # Structural hazard on the merge path.
        if shape.maxm is None:
            cause_expr = "NO_DEST_FIELD"
        elif not shape.limited:
            cause_expr = "NO_MISS_SLOT"
        else:
            cause_expr = "NO_MISS_SLOT if not miss_ok else NO_DEST_FIELD"
        _emit(w, 5, f"""
if not stalled:
    stalled = True
    s_cause = {cause_expr}
""")
        if shape.maxm is None:
            _emit(w, 5, "t = f[2]")
        elif not shape.limited:
            _emit(w, 5, "t = fence")
        else:
            _emit(w, 5, """
if not miss_ok:
    t = fence
else:
    t = f[2]
""")
        _emit(w, 5, "drain(t)")
        _emit_access(w, 5, shape, """
structural += 1
causes[s_cause] = causes.get(s_cause, 0) + 1
structural_stall += t - now
return t + 1, t + 1
""")
        _emit(w, 5, "continue")
    # -- primary-miss path -------------------------------------------
    _emit(w, 4, f"si = b & {shape.setmask}")
    launch_always_ok = (
        shape.maxf is None and shape.maxm is None and shape.maxs is None
    )
    if not launch_always_ok:
        _emit(w, 4, """
wait_until = t
cause = None
""")
        if shape.maxf is not None:
            _emit(w, 4, f"""
if len(fifo) >= {shape.maxf}:
    if fence > wait_until:
        wait_until = fence
    cause = NO_FETCH_SLOT
""")
        if shape.maxm is not None:
            _emit(w, 4, f"""
if n_misses_out >= {shape.maxm}:
    if fence > wait_until:
        wait_until = fence
    cause = NO_MISS_SLOT
""")
        if shape.maxs is not None:
            _emit(w, 4, f"""
if per_set.get(si, 0) >= {shape.maxs}:
    fs_t = -1
    for f2 in fifo:
        if f2[1] == si:
            fs_t = f2[2]
            break
    if fs_t < 0:
        raise SimulationError(
            "per-set limit hit with no fetch in the set")
    if fs_t > wait_until:
        wait_until = fs_t
    cause = NO_SET_SLOT
""")
        _emit(w, 4, "if cause is None:")
        launch_indent = 5
    else:
        launch_indent = 4
    _emit_advance(w, launch_indent)
    _emit(w, launch_indent, f"ft = t + 1 + {shape.penalty}")
    if shape.limited:
        _emit(w, launch_indent, f"""
counts = [0] * {shape.nsub}
counts[sub] = 1
f = [b, si, ft, 1, counts]
""")
    else:
        _emit(w, launch_indent, "f = [b, si, ft, 1, None]")
    _emit(w, launch_indent, """
if not fifo:
    fence = ft
fifo.append(f)
by_block[b] = f
n_misses_out += 1
""")
    if shape.maxs is not None:
        _emit(w, launch_indent, "per_set[si] = per_set.get(si, 0) + 1")
    _emit(w, launch_indent, """
fetches_launched += 1
if n_misses_out > max_m:
    max_m = n_misses_out
nf = len(fifo)
if nf > max_f:
    max_f = nf
if stalled:
    structural += 1
    causes[s_cause] = causes.get(s_cause, 0) + 1
    structural_stall += t - now
    return t + 1, ft
primary += 1
return t + 1, ft
""")
    if not launch_always_ok:
        _emit(w, 4, """
if not stalled:
    stalled = True
    s_cause = cause
if wait_until <= t:
    raise SimulationError("structural stall made no progress")
t = wait_until
drain(t)
""")


def _emit_slow_store(w, shape: "_KernelShape") -> None:
    """Transcribe ``MissHandler.store`` (ideal write buffer)."""
    _emit(w, 2, """
def slow_store(b, now):
    nonlocal stores, store_hits, store_misses, wb_pushes
    nonlocal last_t, n_misses_out, evictions, fence, wa_stall
    stores += 1
    if fence <= now:
        drain(now)
""")
    if shape.dm:
        _emit(w, 3, "hit = b in res")
    else:
        _emit(w, 3, f"""
ways = S[b & {shape.setmask}]
if b in ways:
    ways.remove(b)
    ways.insert(0, b)
    hit = True
else:
    hit = False
""")
    _emit(w, 3, """
if hit:
    store_hits += 1
else:
    store_misses += 1
wb_pushes += 1
""")
    if shape.wma:
        _emit(w, 3, f"""
if not hit:
    wa_stall += {shape.penalty}
""")
        _emit_install(w, 4, shape)
        _emit(w, 4, f"return now + 1 + {shape.penalty}")
    _emit(w, 3, "return now + 1")


def _emit_probe_hit(w, indent: int, shape, hit_body: str,
                    miss_body: str) -> None:
    """The per-slot fast-path probe: ``t < fence`` plus a tag hit.

    The probe is only evaluated before the fence, and for
    set-associative tags a probe that hits performs the LRU touch
    (a probe that misses touches nothing, and the slow path's
    re-access after its no-op drain misses again, exactly like
    :meth:`~repro.core.handler.MissHandler.load` after a miss).
    """
    if shape.dm:
        _emit(w, indent, "if t < fence and b in res:")
        _emit(w, indent + 1, hit_body)
        _emit(w, indent, "else:")
        _emit(w, indent + 1, miss_body)
    else:
        _emit(w, indent, f"""
if t < fence:
    ways = S[b & {shape.setmask}]
    if b in ways:
        ways.remove(b)
        ways.insert(0, b)
""")
        _emit(w, indent + 2, hit_body)
        _emit(w, indent + 1, "else:")
        _emit(w, indent + 2, miss_body)
        _emit(w, indent, "else:")
        _emit(w, indent + 1, miss_body)


def build_replay_fn(
    stream: "EventStream", trace: "ExpandedTrace", config: "MachineConfig"
) -> Callable:
    """Compile one sibling's replay kernel over ``stream``.

    The returned function has signature ``run(it1) -> tuple`` --
    replay executions ``0..it1-1`` from a cold machine and return the
    raw counter tuple :func:`run_replay` folds into a
    :class:`~repro.core.stats.MissStats`.
    """
    shape = _KernelShape(config)
    slots = stream.slots
    n_loads = stream.n_loads
    n_stores = stream.n_stores
    body_len = stream.body_len
    w: List[str] = []
    w.append("def _factory(lbufs, abufs):")
    byte_bufs: List = []
    for k, slot in enumerate(slots):
        w.append(f"    L{k} = lbufs[{k}]")
        if shape.limited:
            w.append(f"    A{k} = abufs[{k}]")
    if shape.limited:
        byte_bufs = [trace.addresses[s.body_index] for s in slots]
    w.append("    def run(it1):")
    _emit_state_init(w, shape, n_loads)
    _emit_drain(w, shape)
    _emit_miss_load(w, shape)
    if n_stores:
        _emit_slow_store(w, shape)
    w.append("        while it < it1:")
    if shape.dm:
        # Turbo lane: with no fetch outstanding every lr value is
        # already in the past, so an all-hit execution stalls nothing
        # and advances by exactly the body length.  A failed attempt
        # backs off for 32 executions; probes are pure, so trying or
        # not trying the chain never changes the simulation.
        chain = " and ".join(
            f"L{k}[it] in res" for k in range(len(slots)))
        _emit(w, 3, f"""
if fence == FAR_FUTURE:
    if skip:
        skip -= 1
    else:
        start = it
        while it < it1 and {chain}:
            it += 1
        k = it - start
        if k:
            cycle += {body_len} * k
""")
        if n_loads:
            _emit(w, 6, f"fast_loads += {n_loads} * k")
        if n_stores:
            _emit(w, 6, f"fast_stores += {n_stores} * k")
        _emit(w, 6, """
if it == it1:
    break
""")
        _emit(w, 5, """
else:
    skip = 32
""")
    for k, slot in enumerate(slots):
        _emit_issue_time(w, 3, slot.pregap, slot.terms)
        w.append(f"            b = L{k}[it]")
        if shape.limited:
            sub = f", (A{k}[it] & {shape.line_mask}) >> {shape.sub_shift}"
        else:
            sub = ""
        if slot.kind == P_LOAD:
            j = slot.lr_index
            _emit_probe_hit(
                w, 3, shape,
                f"fast_loads += 1\nt += 1\nlr{j} = t\ncycle = t",
                f"cycle, lr{j} = miss_load(b, t{sub})",
            )
        elif not shape.wma:
            # Write-around: a store miss before the fence launches no
            # fetch and installs nothing, so both outcomes are inline.
            if shape.dm:
                _emit(w, 3, """
if t < fence:
    if b in res:
        fast_stores += 1
    else:
        fast_smiss += 1
    cycle = t + 1
else:
    cycle = slow_store(b, t)
""")
            else:
                _emit(w, 3, f"""
if t < fence:
    ways = S[b & {shape.setmask}]
    if b in ways:
        ways.remove(b)
        ways.insert(0, b)
        fast_stores += 1
    else:
        fast_smiss += 1
    cycle = t + 1
else:
    cycle = slow_store(b, t)
""")
        else:
            # Write-miss allocate: only store hits are inline.
            _emit_probe_hit(
                w, 3, shape,
                "fast_stores += 1\ncycle = t + 1",
                "cycle = slow_store(b, t)",
            )
    # Per-execution tail: advances and stall sites after the last
    # memory op.  Emitted inside the loop so ``cycle`` at the loop top
    # always equals the interpreter's, which the turbo arithmetic
    # depends on.
    if stream.tail_gap:
        w.append(f"            cycle += {stream.tail_gap}")
    for m, d in stream.tail_terms:
        w.append(f"            v = lr{m} + {d}" if d else
                 f"            v = lr{m}")
        w.append("            if v > cycle:")
        w.append("                cycle = v")
    w.append("            it += 1")
    # Finalize: drain arrived fills, integrate the histograms to the
    # end cycle (handler.finalize equivalent).
    _emit(w, 2, """
if fifo:
    drain(cycle)
t = cycle
""")
    _emit_advance(w, 2)
    _emit(w, 2, """
return (cycle, loads, load_hits, primary, secondary, structural,
        causes, stores, store_hits, store_misses, structural_stall,
        wa_stall, wb_pushes, fetches_launched, evictions, miss_hist,
        fetch_hist, max_m, max_f, fast_loads, fast_stores, fast_smiss)
""")
    w.append("    return run")
    source = "\n".join(w)
    namespace: dict = {
        "FAR_FUTURE": FAR_FUTURE,
        "SimulationError": SimulationError,
        "NO_MISS_SLOT": StructuralCause.NO_MISS_SLOT,
        "NO_DEST_FIELD": StructuralCause.NO_DEST_FIELD,
        "NO_FETCH_SLOT": StructuralCause.NO_FETCH_SLOT,
        "NO_SET_SLOT": StructuralCause.NO_SET_SLOT,
    }
    exec(compile(source, f"<replay:{stream.workload_name}>", "exec"),
         namespace)
    return namespace["_factory"](stream.lines, byte_bufs)


def run_replay(
    stream: "EventStream", trace: "ExpandedTrace", config: "MachineConfig"
) -> Tuple[MissStats, int, int, int]:
    """Replay one ``replay``-lane machine over the stream.

    Returns ``(stats, cycles, instructions, truedep)`` bit-identical
    to what full execution through
    :func:`repro.cpu.reference.run_single_issue_reference` would
    produce for the same cell.  The lane
    (:func:`repro.sim.engines.cell_lane`) is the caller's to check.
    """
    key = (config.geometry, config.policy, config.effective_penalty)
    fn = stream._replay_fns.get(key)
    if fn is None:
        fn = build_replay_fn(stream, trace, config)
        stream._replay_fns[key] = fn
    return finish_replay(stream.instructions, fn(stream.executions))


def finish_replay(
    instructions: int, raw: Tuple
) -> Tuple[MissStats, int, int, int]:
    """Fold a kernel's raw counter tuple into the result quadruple.

    Shared by the scalar and C replays -- both kinds of kernel
    return the same 22-counter tuple, so the accounting fold (and the
    ``verify_accounting`` identity downstream) is engine-independent.
    The truedep it derives holds for single issue only.
    """
    (cycle, loads, load_hits, primary, secondary, structural, causes,
     stores, store_hits, store_misses, structural_stall, wa_stall,
     wb_pushes, fetches_launched, evictions, miss_hist, fetch_hist,
     max_m, max_f, fast_loads, fast_stores, fast_smiss) = raw
    stats = MissStats()
    stats.loads = loads + fast_loads
    stats.load_hits = load_hits + fast_loads
    stats.primary_misses = primary
    stats.secondary_misses = secondary
    stats.structural_misses = structural
    stats.structural_causes = causes
    stats.stores = stores + fast_stores + fast_smiss
    stats.store_hits = store_hits + fast_stores
    stats.store_misses = store_misses + fast_smiss
    stats.structural_stall_cycles = structural_stall
    stats.write_allocate_stall_cycles = wa_stall
    stats.fetches_launched = fetches_launched
    stats.evictions = evictions
    stats.miss_inflight_hist = miss_hist
    stats.fetch_inflight_hist = fetch_hist
    stats.max_misses_inflight = max_m
    stats.max_fetches_inflight = max_f
    stats.observed_cycles = cycle
    truedep = cycle - instructions - stats.memory_stall_cycles
    return stats, cycle, instructions, truedep


def run_blocking_summary(
    summary: "FunctionalSummary", handler: MissHandler
) -> Optional[Tuple[int, int, int]]:
    """Reproduce a blocking policy's run from functional aggregates.

    A blocking machine installs every missed line before the next
    instruction issues, so its tag state is the immediate-install
    cache the functional pass simulated; each load miss costs exactly
    the penalty, dependent loads never stall (the data arrives with
    the pipeline release), and the run collapses to arithmetic.
    Returns ``None`` when the handler cannot absorb the closed form
    (non-blocking policy or a finite write buffer).
    """
    end = handler.absorb_blocking_run(
        instructions=summary.instructions,
        load_hits=summary.load_hits,
        load_misses=summary.load_misses,
        store_hits=summary.store_hits,
        store_misses=summary.store_misses,
        evictions=summary.evictions,
    )
    if end is None:
        return None
    return end, summary.instructions, 0
