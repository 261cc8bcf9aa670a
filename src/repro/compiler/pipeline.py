"""The compiler driver: unroll, schedule, allocate.

This is the software half of the paper's methodology.  The hardware
sweep varies MSHR resources; the software sweep varies the *scheduled
load latency* handed to this pipeline ("It is important to note that
the load latency is a code-scheduling parameter and not a system
parameter", Section 3.3).

Unrolling policy: trace-scheduling compilers unroll inner loops enough
to fill the latency window they are scheduling for.  We model that by
growing the unroll factor with the scheduled load latency, capped per
kernel (numeric kernels tolerate deep unrolling; pointer-bound integer
kernels do not benefit and real compilers leave them nearly alone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

from repro.compiler.ir import Kernel
from repro.compiler.pipelining import ROTATION_RESERVE, rotate_schedule
from repro.compiler.regalloc import AllocatedBody, allocate
from repro.compiler.scheduler import Schedule, list_schedule
from repro.compiler.unroll import unroll
from repro.cpu.isa import Instruction, OpClass
from repro.errors import CompilationError


def unroll_factor_for(load_latency: int, max_unroll: int) -> int:
    """Unroll factor used when scheduling for ``load_latency``.

    Grows roughly with the latency window (one extra copy per two
    cycles of assumed latency) and is clamped to ``max_unroll``.
    Latency 1 always means no unrolling: a compiler scheduling for
    cache hits has no reason to enlarge the body.
    """
    if load_latency <= 1:
        return 1
    factor = 1 + load_latency // 2
    return max(1, min(max_unroll, factor))


class CompileFacts(NamedTuple):
    """A compiled body's reference counts: what Figure 4 tabulates.

    Five integers, small enough to keep as a result-store row
    (:func:`repro.sim.planner.compile_facts`), so Figure 4 can read
    them back without compiling.
    """

    instructions: int
    loads: int
    stores: int
    unroll_factor: int
    spill_count: int

    def per_original_iteration(self) -> Tuple[float, float, float]:
        """(instructions, loads, stores) per *original* loop iteration."""
        u = self.unroll_factor
        return (self.instructions / u, self.loads / u, self.stores / u)


@dataclass(frozen=True)
class CompiledBody:
    """A fully compiled loop body ready for trace expansion."""

    kernel_name: str
    instructions: Tuple[Instruction, ...]
    #: Streams the body references: the kernel's streams plus, at index
    #: ``spill_stream``, the spill area (present only if spills occurred).
    num_streams: int
    spill_stream: int
    spill_count: int
    load_latency: int
    unroll_factor: int
    schedule: Schedule
    #: Loads moved past their consumers by the software-pipelining pass.
    rotated_loads: int = 0

    @property
    def num_instructions(self) -> int:
        """Instructions per execution of the (unrolled) body."""
        return len(self.instructions)

    @property
    def num_loads(self) -> int:
        return sum(1 for i in self.instructions if i.op is OpClass.LOAD)

    @property
    def num_stores(self) -> int:
        return sum(1 for i in self.instructions if i.op is OpClass.STORE)

    def facts(self) -> CompileFacts:
        """The body's reference counts, unroll factor and spill count."""
        return CompileFacts(self.num_instructions, self.num_loads,
                            self.num_stores, self.unroll_factor,
                            self.spill_count)

    def render(self) -> str:
        """Disassembly-style listing of the compiled body."""
        header = (
            f"{self.kernel_name}: latency {self.load_latency}, "
            f"unroll {self.unroll_factor}, {self.num_instructions} instrs, "
            f"{self.spill_count} spills, {self.rotated_loads} rotated"
        )
        lines = [header]
        for idx, instr in enumerate(self.instructions):
            lines.append(f"  {idx:4d}: {instr.render()}")
        return "\n".join(lines)


def compile_kernel(
    kernel: Kernel,
    load_latency: int,
    max_unroll: int = 8,
    software_pipeline: bool = False,
    validate: bool = False,
) -> CompiledBody:
    """Run the full pipeline on ``kernel``.

    The unroll factor is :func:`unroll_factor_for`'s.
    ``software_pipeline`` additionally
    rotates single-use streaming loads past their consumers (see
    :mod:`repro.compiler.pipelining`), modelling a trace scheduler that
    issues the next iteration's loads early.  Like the unroll policy,
    it only engages when the schedule targets miss latencies
    (``load_latency > 1``).  ``validate=True`` additionally replays the
    compiled body through the dataflow verifier
    (:mod:`repro.compiler.check`) and raises on any divergence from the
    kernel's semantics.
    """
    if max_unroll < 1:
        raise CompilationError(f"max_unroll must be >= 1: {max_unroll}")
    factor = unroll_factor_for(load_latency, max_unroll)
    body = unroll(kernel, factor)
    pipelining = software_pipeline and load_latency > 1
    reserve = ROTATION_RESERVE if pipelining else 0
    schedule = list_schedule(body, load_latency, reserve_registers=reserve)
    rotated = 0
    if pipelining:
        schedule, rotated = rotate_schedule(body, schedule)
    allocated: AllocatedBody = allocate(body, schedule)
    instructions = allocated.instructions
    num_streams = kernel.num_streams
    if allocated.spill_count:
        num_streams += 1
    if validate:
        from repro.compiler.check import verify_allocation

        verify_allocation(body, schedule, instructions,
                          allocated.spill_stream)
    return CompiledBody(
        kernel_name=kernel.name,
        instructions=instructions,
        num_streams=num_streams,
        spill_stream=allocated.spill_stream,
        spill_count=allocated.spill_count,
        load_latency=load_latency,
        unroll_factor=factor,
        schedule=schedule,
        rotated_loads=rotated,
    )
