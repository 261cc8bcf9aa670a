"""Linear-scan register allocation with spill-code insertion.

The paper notes (Section 3.3, Figure 4) that "register allocation
occurs after instruction scheduling", so schedules prepared with
different load latencies have different register-use profiles and
spill different amounts -- which is why the benchmark reference counts
in Figure 4 vary with the load latency.  This allocator reproduces the
mechanism:

* it runs *after* list scheduling, over the scheduled order;
* loop-invariant vregs (base addresses) and loop-carried vregs
  (accumulators, induction variables, pointer-chase links) get
  dedicated registers for the whole loop;
* remaining vregs are allocated by linear scan over their scheduled
  live interval; when a register file is exhausted the current
  interval is spilled: its definition is followed by a store to the
  spill area and every use is preceded by a reload.

Spill traffic goes to a dedicated *spill stream* (a small stack
region), so spills both lengthen the instruction stream and add data
references -- exactly the Figure 4 effect.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.compiler.ir import NUM_SCRATCH, Kernel, RegClass
from repro.compiler.scheduler import Schedule
from repro.cpu.isa import FP_BASE, NUM_INT_REGS, Instruction, OpClass
from repro.errors import CompilationError


@dataclass(frozen=True)
class AllocatedBody:
    """The register-allocated, spill-expanded loop body."""

    instructions: Tuple[Instruction, ...]
    #: Stream id used by spill loads/stores (``kernel.num_streams``);
    #: only meaningful when ``spill_count > 0``.
    spill_stream: int
    #: Number of vregs that were spilled.
    spill_count: int

    @property
    def num_instructions(self) -> int:
        return len(self.instructions)

    @property
    def num_loads(self) -> int:
        return sum(1 for i in self.instructions if i.op is OpClass.LOAD)

    @property
    def num_stores(self) -> int:
        return sum(1 for i in self.instructions if i.op is OpClass.STORE)


class _Pool:
    """Free-list of physical registers for one class."""

    def __init__(self, base: int, count: int) -> None:
        self._free = list(range(base, base + count))
        self.base = base
        self.count = count

    def take(self) -> Optional[int]:
        if self._free:
            return self._free.pop()
        return None

    def release(self, reg: int) -> None:
        self._free.append(reg)


def allocate(kernel: Kernel, schedule: Schedule) -> AllocatedBody:
    """Map the scheduled kernel body onto the architected registers."""
    ops = [kernel.ops[i] for i in schedule.order]
    n = len(ops)
    defs = kernel.defs()

    # Positions in the scheduled order.
    position = {op_idx: pos for pos, op_idx in enumerate(schedule.order)}

    # -- classify vregs ------------------------------------------------------
    def_pos: Dict[int, int] = {v: position[i] for v, i in defs.items()}
    last_use: Dict[int, int] = {}
    crosses_back_edge: Dict[int, bool] = {}
    for pos, op in enumerate(ops):
        for src in op.srcs:
            if src in def_pos:
                # A use at or before its definition (including the
                # self-loop ``i = i + 1``, where use and def share the
                # position) reads the previous iteration's value: the
                # register must survive the back edge.
                if pos <= def_pos[src]:
                    crosses_back_edge[src] = True
                prev = last_use.get(src, -1)
                if pos > prev:
                    last_use[src] = pos

    invariants = kernel.invariant_vregs()
    permanent = set(invariants)
    for vreg in def_pos:
        if crosses_back_edge.get(vreg):
            permanent.add(vreg)

    # -- register pools --------------------------------------------------------
    usable_int = NUM_INT_REGS - NUM_SCRATCH
    usable_fp = NUM_INT_REGS - NUM_SCRATCH  # FP file is the same size
    int_pool = _Pool(0, usable_int)
    fp_pool = _Pool(FP_BASE, usable_fp)
    int_scratch = list(range(usable_int, NUM_INT_REGS))
    fp_scratch = list(range(FP_BASE + usable_fp, FP_BASE + NUM_INT_REGS))

    pools = {
        vreg: int_pool if cls is RegClass.INT else fp_pool
        for vreg, cls in kernel.vreg_classes.items()
    }

    assignment: Dict[int, int] = {}
    for vreg in sorted(permanent):
        reg = pools[vreg].take()
        if reg is None:
            raise CompilationError(
                f"kernel '{kernel.name}': too many loop-carried/invariant "
                f"values for the register file"
            )
        assignment[vreg] = reg

    # -- linear scan over temporaries -------------------------------------------
    spilled: set = set()
    # Intervals sorted by definition position.
    temporaries = sorted(
        (v for v in def_pos if v not in permanent), key=lambda v: def_pos[v]
    )
    # Allocated intervals as a heap of (last_use_pos, def_pos, vreg):
    # intervals ending together expire in definition order.
    active: List[Tuple[int, int, int]] = []

    for vreg in temporaries:
        start = def_pos[vreg]
        end = last_use.get(vreg, start)
        while active and active[0][0] < start:
            expired = heapq.heappop(active)[2]
            pools[expired].release(assignment[expired])
        reg = pools[vreg].take()
        if reg is None:
            spilled.add(vreg)
            continue
        assignment[vreg] = reg
        heapq.heappush(active, (end, start, vreg))

    # -- emit, expanding spill code ------------------------------------------------
    spill_stream = kernel.num_streams
    out: List[Instruction] = []
    scratch_rr = {RegClass.INT: 0, RegClass.FP: 0}

    def take_scratch(cls: RegClass) -> int:
        bank = int_scratch if cls is RegClass.INT else fp_scratch
        idx = scratch_rr[cls]
        scratch_rr[cls] = (idx + 1) % NUM_SCRATCH
        return bank[idx]

    for op in ops:
        srcs: List[int] = []
        for src in op.srcs:
            if src in spilled:
                cls = kernel.vreg_classes[src]
                scratch = take_scratch(cls)
                out.append(
                    Instruction(
                        OpClass.LOAD,
                        dst=scratch,
                        stream=spill_stream,
                        width=8,
                        comment=f"reload v{src}",
                    )
                )
                srcs.append(scratch)
            else:
                srcs.append(assignment[src])
        dst: Optional[int] = None
        spill_after: Optional[int] = None
        if op.dst is not None:
            if op.dst in spilled:
                cls = kernel.vreg_classes[op.dst]
                dst = take_scratch(cls)
                spill_after = dst
            else:
                dst = assignment[op.dst]
        out.append(
            Instruction(
                op.op,
                dst=dst,
                srcs=tuple(srcs),
                stream=op.stream,
                width=op.width,
                comment=op.comment,
            )
        )
        if spill_after is not None:
            out.append(
                Instruction(
                    OpClass.STORE,
                    srcs=(spill_after,),
                    stream=spill_stream,
                    width=8,
                    comment=f"spill v{op.dst}",
                )
            )

    return AllocatedBody(
        instructions=tuple(out),
        spill_stream=spill_stream,
        spill_count=len(spilled),
    )
