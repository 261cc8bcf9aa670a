"""Latency-driven, pressure-aware list scheduling.

"The load latency is the time in cycles that the compiler assumes is
required to fetch data from the cache on a cache hit ... This parameter
indicates to the compiler how many instructions it should try to insert
between the load instruction and the first use." (Section 3.3.)

The scheduler builds a dependence graph over the (unrolled) kernel
body, weights load-to-use edges with the *assumed* load latency, and
performs critical-path list scheduling for a single-issue machine.  The
output is an instruction *order*: the machine is interlocked, so no
NOPs are emitted -- exactly the Multiflow setup the paper used, where
the simulator always resolves hits in one cycle and the schedule only
determines how much miss latency can be hidden.

Edges:

* true dependences (def before use in the body): latency equals the
  assumed ``load_latency`` when the producer is a load, 1 otherwise;
* loop-carried dependences (use at or before its def in the body):
  an ordering edge from the use to the def with latency 1, keeping the
  consumer of the previous iteration's value ahead of the redefinition.

Register pressure: hoisting every load to the top of the body would
exceed the 32-register files and force the allocator to spill the very
values being overlapped, so -- like any production trace scheduler --
the selection step tracks live temporaries per register class and,
once a class approaches its budget, prefers ready instructions that do
not grow that class's live set.  The budget accounts for registers
permanently claimed by loop invariants and loop-carried values.

Just-in-time load placement: a pure critical-path scheduler hoists
*every* load to the top of the body (all loads are source nodes), which
both bunches misses into convoys and maximizes register lifetime.  The
paper's knob is "how many instructions to insert between the load and
the first use" -- the target distance is the scheduled latency, not
infinity.  We therefore give each load an ALAP-derived release time:
it may not issue more than the assumed load latency (plus a small
slack) before its earliest use would allow, which spreads loads through
the body the way a latency-directed trace scheduler does.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.compiler.ir import NUM_SCRATCH, Kernel, RegClass
from repro.cpu.isa import NUM_INT_REGS, OpClass
from repro.errors import CompilationError

#: Head-room left under the hard register budget when throttling.
PRESSURE_MARGIN = 2

#: Extra cycles a load may be hoisted beyond its latency-directed
#: just-in-time slot (scheduling slack).
HOIST_SLACK = 2


@dataclass(frozen=True)
class Schedule:
    """Result of scheduling one kernel body."""

    #: Op indices (into the kernel body) in emission order.
    order: Tuple[int, ...]
    #: Issue cycle the scheduler assigned to each emitted op
    #: (parallel to ``order``; informational).
    cycles: Tuple[int, ...]
    #: The load latency the schedule was prepared for.
    load_latency: int

    @property
    def makespan(self) -> int:
        """Scheduler's estimate of one iteration's length in cycles."""
        return self.cycles[-1] + 1 if self.cycles else 0


def _build_edges(
    kernel: Kernel, defs: Dict[int, int], load_latency: int
) -> Tuple[List[List[Tuple[int, int]]], List[int]]:
    """Return (successor lists with latencies, predecessor counts)."""
    n = len(kernel.ops)
    succs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    preds = [0] * n
    for use_idx, op in enumerate(kernel.ops):
        for src in op.srcs:
            def_idx = defs.get(src)
            if def_idx is None:
                continue  # invariant: always ready
            if def_idx < use_idx:
                producer = kernel.ops[def_idx]
                lat = load_latency if producer.op is OpClass.LOAD else 1
                succs[def_idx].append((use_idx, lat))
                preds[use_idx] += 1
            elif def_idx > use_idx:
                # Loop-carried: keep the use ahead of the redefinition.
                succs[use_idx].append((def_idx, 1))
                preds[def_idx] += 1
            # def_idx == use_idx (e.g. ``i = i + 1``) is loop-carried
            # to itself: no intra-iteration ordering constraint.
    return succs, preds


def _priorities(
    n: int, succs: List[List[Tuple[int, int]]], preds: List[int]
) -> List[int]:
    """Critical-path priorities (longest latency path to any sink)."""
    counts = list(preds)
    stack = [i for i in range(n) if counts[i] == 0]
    topo: List[int] = []
    while stack:
        node = stack.pop()
        topo.append(node)
        for succ, _lat in succs[node]:
            counts[succ] -= 1
            if counts[succ] == 0:
                stack.append(succ)
    if len(topo) != n:
        raise CompilationError("dependence cycle within one iteration")
    prio = [1] * n
    for node in reversed(topo):
        best = 1
        for succ, lat in succs[node]:
            candidate = lat + prio[succ]
            if candidate > best:
                best = candidate
        prio[node] = best
    return prio


def _register_budgets(
    kernel: Kernel, permanent: Set[int], reserve_registers: int = 0
) -> List[int]:
    """Live-temporary budget per class index, net of permanent registers.

    ``permanent`` holds the vregs that keep one register for the whole
    loop (invariants and loop-carried values).  ``reserve_registers``
    holds back additional registers per class for a later pass (the
    software-pipelining rotation gives loop-long registers to rotated
    values, which must not be double-booked by in-flight temporaries).
    """
    usable = NUM_INT_REGS - NUM_SCRATCH - PRESSURE_MARGIN - reserve_registers
    budgets = [usable, usable]
    for vreg in permanent:
        budgets[int(kernel.vreg_classes[vreg] is RegClass.FP)] -= 1
    # Always allow a little scheduling freedom.
    return [max(budget, 4) for budget in budgets]


def list_schedule(
    kernel: Kernel, load_latency: int, reserve_registers: int = 0
) -> Schedule:
    """Schedule ``kernel`` for a single-issue machine.

    ``load_latency`` is the compiler's *assumption* about load latency
    (the paper's code-scheduling parameter), not a machine property.
    ``reserve_registers`` tightens the pressure budget on behalf of the
    software-pipelining pass.

    Selection rule, each cycle, over the ready ops:

    * take the highest critical-path priority, ties to the lowest body
      index -- one integer ``rank = prio * n + (n - 1 - idx)``;
    * while a register class is saturated (live temporaries at its
      budget), skip an op whose result joins a saturated class unless
      one of its reads of that class dies at it (the op issues that
      value's last remaining use), since issuing it grows the class;
    * if every ready op is skipped, take the highest rank anyway (the
      allocator will spill).

    The rule reads tables built once per call: ``grows[i]``, the class
    index (0 integer, 1 floating point) a non-permanent result of op
    ``i`` joins, or -1; ``reads[i]``, the distinct temporaries op ``i``
    reads, each with its use count in the op and its class index; and
    ``kills[i]``, the ``(vreg, uses)`` pairs of ``reads[i]`` in class
    ``grows[i]``, the reads that can offset the growth.
    """
    if load_latency < 1:
        raise CompilationError(f"load latency must be >= 1: {load_latency}")
    ops = kernel.ops
    n = len(ops)
    defs = kernel.defs()
    succs, preds = _build_edges(kernel, defs, load_latency)
    prio = _priorities(n, succs, preds)

    # Invariants and loop-carried values hold a register for the whole
    # loop, so they are excluded from live-pressure tracking; every
    # other defined vreg is a temporary, all of whose reads are
    # intra-iteration.  One pass also finds each value's first reader.
    permanent: Set[int] = set()
    intra_reads: Dict[int, int] = {}
    first_use: Dict[int, int] = {}
    for use_idx, op in enumerate(ops):
        for src in op.srcs:
            def_idx = defs.get(src)
            if def_idx is None or def_idx >= use_idx:
                permanent.add(src)
            else:
                intra_reads[src] = intra_reads.get(src, 0) + 1
                if def_idx not in first_use:
                    first_use[def_idx] = use_idx
    budgets = _register_budgets(kernel, permanent, reserve_registers)

    class_of = {
        vreg: int(cls is RegClass.FP)
        for vreg, cls in kernel.vreg_classes.items()
    }
    # Reads of each temporary not yet issued (for kill detection).
    remaining = {
        vreg: count for vreg, count in intra_reads.items()
        if vreg not in permanent
    }
    grows: List[int] = []
    reads: List[Tuple[Tuple[int, int, int], ...]] = []
    kills: List[Tuple[Tuple[int, int], ...]] = []
    for op in ops:
        dst = op.dst
        cls = -1 if dst is None or dst in permanent else class_of[dst]
        op_reads = tuple(
            (src, op.srcs.count(src), class_of[src])
            for src in dict.fromkeys(op.srcs) if src in remaining
        )
        grows.append(cls)
        reads.append(op_reads)
        kills.append(tuple((src, uses) for src, uses, c in op_reads
                           if c == cls))
    rank = [prio[i] * n + (n - 1 - i) for i in range(n)]

    earliest = [0] * n
    # Just-in-time release times for loads: a load may be hoisted at
    # most ``load_latency + HOIST_SLACK`` slots above its position in
    # the original body.  Uses stay anchored near their program
    # position by their own dependences, so this caps the achieved
    # load-use distance near the scheduled latency -- the paper's
    # definition of the knob -- and spreads the otherwise symmetric
    # unrolled copies instead of bunching every load at the top.
    hoist_window = load_latency + HOIST_SLACK
    for i, op in enumerate(ops):
        if op.op is OpClass.LOAD:
            # Anchor the release to the *use's* program position, so
            # loads whose consumers sit together are hoisted together
            # (the burst shape real latency-directed schedules have).
            release = first_use.get(i, i) - hoist_window
            if release > 0:
                earliest[i] = release
    remaining_preds = list(preds)
    waiting: List[Tuple[int, int]] = []  # (earliest, rank) heap
    ready: List[int] = []  # ranks, ascending
    for i in range(n):
        if remaining_preds[i] == 0:
            heapq.heappush(waiting, (earliest[i], rank[i]))

    live = [0, 0]
    order: List[int] = []
    cycles: List[int] = []
    cycle = 0
    while len(order) < n:
        while waiting and waiting[0][0] <= cycle:
            insort(ready, heapq.heappop(waiting)[1])
        if not ready:
            if not waiting:
                raise CompilationError("scheduler deadlock (corrupt graph)")
            cycle = waiting[0][0]
            continue

        pos = len(ready) - 1
        saturated = (live[0] >= budgets[0], live[1] >= budgets[1])
        if saturated[0] or saturated[1]:
            while pos >= 0:
                idx = n - 1 - ready[pos] % n
                cls = grows[idx]
                if cls < 0 or not saturated[cls]:
                    break
                kill = kills[idx]
                if kill and any(remaining[src] == uses for src, uses in kill):
                    break
                pos -= 1
            if pos < 0:
                # Every ready op grows a saturated class; take the most
                # critical one anyway (the allocator will spill).
                pos = len(ready) - 1
        best = n - 1 - ready.pop(pos) % n

        # Update live pressure.
        if grows[best] >= 0:
            live[grows[best]] += 1
        for src, uses, cls in reads[best]:
            remaining[src] -= uses
            if remaining[src] == 0:
                live[cls] -= 1

        order.append(best)
        cycles.append(cycle)
        for succ, lat in succs[best]:
            when = cycle + lat
            if when > earliest[succ]:
                earliest[succ] = when
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                heapq.heappush(waiting, (earliest[succ], rank[succ]))
        cycle += 1

    return Schedule(order=tuple(order), cycles=tuple(cycles),
                    load_latency=load_latency)


def load_use_distances(kernel: Kernel, schedule: Schedule) -> Dict[int, int]:
    """Achieved distance (in instructions) from each load to its first use.

    Keyed by the load's body index; loads whose value is only consumed
    in the next iteration are omitted.  This is the quantity the
    ``load_latency`` knob tries to drive up, and what tests assert on.
    """
    position = {op_idx: pos for pos, op_idx in enumerate(schedule.order)}
    defs = kernel.defs()
    first_use: Dict[int, int] = {}
    for use_idx, op in enumerate(kernel.ops):
        for src in op.srcs:
            def_idx = defs.get(src)
            if def_idx is None or def_idx >= use_idx:
                continue
            if kernel.ops[def_idx].op is not OpClass.LOAD:
                continue
            dist = position[use_idx] - position[def_idx]
            if def_idx not in first_use or dist < first_use[def_idx]:
                first_use[def_idx] = dist
    return first_use
