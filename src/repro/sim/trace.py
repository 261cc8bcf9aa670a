"""Trace expansion: binding a compiled body to concrete addresses.

The compiled loop body references streams symbolically; this module
pre-generates, for every memory op in the body, the address it uses in
each execution of the body.  Pre-generation keeps all numpy work out of
the simulator's hot loop and makes runs exactly reproducible.
Addresses are stored as flat ``array('q')`` buffers -- 8 bytes per
entry instead of a boxed ``int`` per entry -- so billion-reference
expansions stay within memory.

A stream referenced by ``k`` ops per body execution is consumed ``k``
addresses per execution, assigned to its ops in body order -- so the
address sequence a stream produces is independent of the unroll factor
and (statistically) of the schedule.

For the execution engines the trace also compiles itself into a
*flattened program* (:meth:`ExpandedTrace.program`): a per-op dispatch
table in which every attribute lookup has been hoisted, source-register
lists are pre-filtered down to the registers that can actually stall,
and runs of non-memory ops that can never interact with a pending load
fill are coalesced into single "advance the clock by N" entries.  See
``docs/performance.md`` for the argument that this is exact.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.pipeline import CompiledBody
from repro.cpu.isa import Instruction, OpClass
from repro.workloads.workload import Workload
from repro.errors import WorkloadError

#: Flattened-program opcodes (first element of each program entry).
#: SKIP entries are ``(P_SKIP, n)``: n coalesced non-memory ops, none
#: of which can read or overwrite a pending load fill.
P_SKIP = 0
#: ``(P_LOAD, dst, stall_srcs, addrs)``.
P_LOAD = 1
#: ``(P_STORE, stall_srcs, addrs)``.
P_STORE = 2
#: ``(P_SCALAR, dst_or_minus1, stall_srcs)``: a non-memory op that may
#: stall on (or overwrite) a load destination register.
P_SCALAR = 3


def _flatten(
    body: Sequence[Instruction], addresses: Sequence[Optional[Sequence[int]]]
) -> List[tuple]:
    """Compile the body into the engines' dispatch program.

    Only load destination registers can ever hold a future readiness
    time (every other writer publishes ``cycle + 1``, which program
    order has already passed when any reader issues), so:

    * source lists are filtered to registers in the load-destination
      set -- the others can never raise a true-dependency stall;
    * a non-memory op whose (filtered) sources are empty and whose
      destination is not a load destination has no observable effect
      beyond advancing the clock one cycle, and consecutive such ops
      collapse into one ``P_SKIP`` entry.
    """
    load_dsts = {op.dst for op in body if op.op is OpClass.LOAD}
    program: List[tuple] = []
    skip = 0
    for j, instr in enumerate(body):
        kind = instr.op
        if kind is OpClass.LOAD or kind is OpClass.STORE:
            if skip:
                program.append((P_SKIP, skip))
                skip = 0
            stall_srcs = tuple(s for s in instr.srcs if s in load_dsts)
            if kind is OpClass.LOAD:
                program.append((P_LOAD, instr.dst, stall_srcs, addresses[j]))
            else:
                program.append((P_STORE, stall_srcs, addresses[j]))
            continue
        stall_srcs = tuple(s for s in instr.srcs if s in load_dsts)
        dst = instr.dst if instr.dst is not None else -1
        if not stall_srcs and dst not in load_dsts:
            skip += 1
            continue
        if skip:
            program.append((P_SKIP, skip))
            skip = 0
        # The write is observable only when dst aliases a load
        # destination (the scoreboard WAW case); otherwise drop it.
        program.append((P_SCALAR, dst if dst in load_dsts else -1, stall_srcs))
    if skip:
        program.append((P_SKIP, skip))
    return program


@dataclass
class ExpandedTrace:
    """A compiled body with per-op per-execution addresses."""

    body: Tuple[Instruction, ...]
    #: Parallel to ``body``: for memory ops, the per-execution address
    #: buffer (an ``array('q')`` from :func:`expand`, though any
    #: integer sequence works); ``None`` for non-memory ops.
    addresses: List[Optional[Sequence[int]]]
    #: Number of times the body is executed.
    executions: int
    workload_name: str
    _program: Optional[List[tuple]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_instructions(self) -> int:
        return len(self.body) * self.executions

    def program(self) -> List[tuple]:
        """The flattened dispatch program (built once, cached)."""
        if self._program is None:
            self._program = _flatten(self.body, self.addresses)
        return self._program


def expand(
    workload: Workload, compiled: CompiledBody, scale: float = 1.0
) -> ExpandedTrace:
    """Materialize the run: addresses for every memory op.

    ``scale`` multiplies the workload's iteration count; the body
    executes ``ceil(iterations / unroll_factor)`` times so the number
    of *original* iterations simulated stays comparable across
    schedules with different unroll factors.
    """
    if scale <= 0:
        raise WorkloadError(f"scale must be positive: {scale}")
    iterations = max(1, int(workload.iterations * scale))
    executions = -(-iterations // compiled.unroll_factor)

    body = compiled.instructions
    # Occurrence index of each memory op within its stream, body order.
    occurrence: List[Tuple[int, int]] = []  # (stream, index within stream)
    uses_per_stream: Dict[int, int] = {}
    for instr in body:
        if instr.op in (OpClass.LOAD, OpClass.STORE):
            sid = instr.stream
            assert sid is not None
            occurrence.append((sid, uses_per_stream.get(sid, 0)))
            uses_per_stream[sid] = uses_per_stream.get(sid, 0) + 1

    # Generate each stream once, then slice per op.
    stream_addresses: Dict[int, "object"] = {}
    for sid, k in uses_per_stream.items():
        pattern = workload.pattern_for(sid, compiled.spill_stream)
        rng = workload.rng_for_stream(sid)
        stream_addresses[sid] = pattern.generate(k * executions, rng)

    addresses: List[Optional[Sequence[int]]] = []
    mem_idx = 0
    for instr in body:
        if instr.op in (OpClass.LOAD, OpClass.STORE):
            sid, occ = occurrence[mem_idx]
            mem_idx += 1
            k = uses_per_stream[sid]
            arr = stream_addresses[sid]
            sliced = np.ascontiguousarray(
                np.asarray(arr)[occ::k][:executions], dtype=np.int64
            )
            # One copy, numpy buffer -> array buffer: a byte-cast view
            # feeds frombytes directly, with no intermediate bytes
            # object doubling the trace's peak footprint.
            buf = array("q")
            buf.frombytes(memoryview(sliced).cast("B"))
            addresses.append(buf)
        else:
            addresses.append(None)

    return ExpandedTrace(
        body=body,
        addresses=addresses,
        executions=executions,
        workload_name=workload.name,
    )
