"""Kernel intermediate representation for the workload compiler.

Workloads are expressed as *kernels*: the body of an innermost loop,
written over virtual registers, that the compiler unrolls, schedules
for a target load latency, and register-allocates -- the same pipeline
the paper drove with the Multiflow compiler (Section 3.2).

A kernel body is a list of :class:`VOp` records over virtual registers.
Dataflow is implicit in the operand structure, with three source kinds:

* **intra-iteration**: the source vreg is defined by an *earlier* op in
  the body -- an ordinary true dependence;
* **loop-carried**: the source vreg is defined by the same or a *later*
  op in the body -- the value comes from the previous iteration (e.g.
  accumulators, induction variables, pointer-chase links);
* **invariant**: the source vreg is never defined in the body -- a
  loop-invariant value such as a base address, always ready.

Virtual registers carry a class (integer or floating point) so the
register allocator can map them onto the two architected files.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.isa import ACCESS_WIDTHS, OpClass
from repro.errors import CompilationError, WorkloadError


#: Scratch registers reserved per class for spill reloads/stores; the
#: allocator keeps them out of its pools and the scheduler keeps them
#: out of its pressure budget.
NUM_SCRATCH = 3


class RegClass(enum.Enum):
    """Register class of a virtual register."""

    INT = "int"
    FP = "fp"


@dataclass(frozen=True)
class VOp:
    """One kernel operation over virtual registers."""

    op: OpClass
    dst: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    stream: Optional[int] = None
    width: int = 8
    comment: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.op in (OpClass.LOAD, OpClass.STORE):
            if self.stream is None:
                raise WorkloadError(f"{self.op.name} requires a stream")
            if self.width not in ACCESS_WIDTHS:
                raise WorkloadError(f"illegal access width {self.width}")
        if self.op is OpClass.LOAD and self.dst is None:
            raise WorkloadError("LOAD requires a destination vreg")
        if self.op is OpClass.STORE and self.dst is not None:
            raise WorkloadError("STORE has no destination vreg")


@dataclass
class Kernel:
    """A loop body: ops, vreg classes, and the streams it references.

    ``stream_widths`` records the access width declared for each
    stream so the trace expander can honour sub-word accesses.
    """

    name: str
    ops: List[VOp]
    vreg_classes: Dict[int, RegClass]
    num_streams: int

    def __post_init__(self) -> None:
        self.validate()

    def fingerprint(self) -> Tuple:
        """A stable, hashable identity for this kernel's content.

        Used as a cache key by :mod:`repro.sim.simulator` in place of
        ``id(kernel)`` (object ids can be reused after garbage
        collection, silently aliasing cache entries).  Two kernels with
        equal fingerprints compile identically.  Computed once and
        memoized; kernels are treated as immutable after construction.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            cached = (
                self.name,
                self.num_streams,
                tuple(
                    (op.op, op.dst, op.srcs, op.stream, op.width)
                    for op in self.ops
                ),
                tuple(sorted(
                    (vreg, cls.value) for vreg, cls in self.vreg_classes.items()
                )),
            )
            self._fingerprint = cached
        return cached

    # -- structural queries ---------------------------------------------------

    def defs(self) -> Dict[int, int]:
        """Map vreg -> index of the op defining it (single def expected)."""
        out: Dict[int, int] = {}
        for idx, op in enumerate(self.ops):
            if op.dst is not None:
                if op.dst in out:
                    raise CompilationError(
                        f"vreg v{op.dst} defined twice in kernel '{self.name}'"
                    )
                out[op.dst] = idx
        return out

    def invariant_vregs(self) -> List[int]:
        """Vregs read but never defined in the body (loop invariants)."""
        defined = {op.dst for op in self.ops if op.dst is not None}
        return list(dict.fromkeys(
            src for op in self.ops for src in op.srcs if src not in defined
        ))

    def loop_carried_pairs(self) -> List[Tuple[int, int]]:
        """(def_index, use_index) pairs whose dependence crosses iterations.

        A use at index ``u`` reading a vreg defined at index ``d`` with
        ``d >= u`` takes the previous iteration's value.
        """
        defs = self.defs()
        pairs: List[Tuple[int, int]] = []
        for use_idx, op in enumerate(self.ops):
            for src in op.srcs:
                def_idx = defs.get(src)
                if def_idx is not None and def_idx >= use_idx:
                    pairs.append((def_idx, use_idx))
        return pairs

    def memory_ops(self) -> List[int]:
        """Indices of loads and stores in body order."""
        return [
            i
            for i, op in enumerate(self.ops)
            if op.op in (OpClass.LOAD, OpClass.STORE)
        ]

    def validate(self) -> None:
        """Raise on malformed kernels (bad streams, bad vreg classes)."""
        if not self.ops:
            raise WorkloadError(f"kernel '{self.name}' has no ops")
        for op in self.ops:
            if op.stream is not None and not 0 <= op.stream < self.num_streams:
                raise WorkloadError(
                    f"kernel '{self.name}' references undeclared stream "
                    f"{op.stream}"
                )
            for vreg in (op.srcs if op.dst is None else (*op.srcs, op.dst)):
                if vreg not in self.vreg_classes:
                    raise WorkloadError(
                        f"kernel '{self.name}' uses vreg v{vreg} with no "
                        f"declared register class"
                    )
        self.defs()  # raises on double definition

    # -- rendering --------------------------------------------------------------

    def render(self) -> str:
        """Readable listing of the kernel body (for debugging)."""
        lines = [f"kernel {self.name}:"]
        for idx, op in enumerate(self.ops):
            operands = []
            if op.dst is not None:
                operands.append(f"v{op.dst}")
            operands.extend(f"v{s}" for s in op.srcs)
            if op.stream is not None:
                operands.append(f"[s{op.stream}:{op.width}B]")
            text = f"  {idx:3d}: {op.op.name.lower():6s} " + ", ".join(operands)
            if op.comment:
                text += f"  ; {op.comment}"
            lines.append(text)
        return "\n".join(lines)


class KernelBuilder:
    """Fluent builder for kernels.

    Methods return virtual-register handles that can be fed to later
    ops, so a kernel reads like straight-line code::

        b = KernelBuilder("dot")
        sa = b.declare_stream()
        sb = b.declare_stream()
        x = b.load(sa)
        y = b.load(sb)
        acc = b.vreg(RegClass.FP)           # loop-carried accumulator
        acc2 = b.fop(x, y, acc, dst=acc)    # acc = x*y + acc  -- dst reuse
        kernel = b.build()

    Loop-carried values are expressed by passing ``dst=`` an existing
    vreg handle that is *used before* it is defined, or by building the
    op order so the definition follows the use.
    """

    def __init__(self, name: str, loop_overhead: bool = True) -> None:
        self.name = name
        self._ops: List[VOp] = []
        self._classes: Dict[int, RegClass] = {}
        self._next_vreg = 0
        self._num_streams = 0
        self._loop_overhead = loop_overhead

    # -- declarations -----------------------------------------------------------

    def vreg(self, cls: RegClass = RegClass.INT) -> int:
        """Declare a fresh virtual register."""
        vreg = self._next_vreg
        self._next_vreg += 1
        self._classes[vreg] = cls
        return vreg

    def declare_stream(self) -> int:
        """Declare an address stream; returns its kernel-local id."""
        sid = self._num_streams
        self._num_streams += 1
        return sid

    # -- op emission --------------------------------------------------------------

    def load(
        self,
        stream: int,
        cls: RegClass = RegClass.FP,
        width: int = 8,
        addr_src: Optional[int] = None,
        dst: Optional[int] = None,
        comment: str = "",
    ) -> int:
        """Emit a load; returns the destination vreg.

        ``addr_src`` optionally names a vreg the address depends on
        (e.g. a pointer loaded by a previous op), creating the
        pointer-chase dependence shape.  Passing ``dst=addr_src`` with
        the same pre-declared vreg yields the classic loop-carried
        pointer chase ``p = p->next``.
        """
        if dst is None:
            dst = self.vreg(cls)
        srcs = (addr_src,) if addr_src is not None else ()
        self._ops.append(
            VOp(OpClass.LOAD, dst=dst, srcs=srcs, stream=stream, width=width,
                comment=comment)
        )
        return dst

    def store(
        self,
        stream: int,
        value: int,
        width: int = 8,
        addr_src: Optional[int] = None,
        comment: str = "",
    ) -> None:
        """Emit a store of vreg ``value``."""
        srcs = (value,) if addr_src is None else (value, addr_src)
        self._ops.append(
            VOp(OpClass.STORE, srcs=srcs, stream=stream, width=width,
                comment=comment)
        )

    def _alu(
        self,
        op: OpClass,
        cls: RegClass,
        srcs: Sequence[int],
        dst: Optional[int],
        comment: str,
    ) -> int:
        if dst is None:
            dst = self.vreg(cls)
        self._ops.append(VOp(op, dst=dst, srcs=tuple(srcs), comment=comment))
        return dst

    def iop(self, *srcs: int, dst: Optional[int] = None, comment: str = "") -> int:
        """Emit an integer ALU op reading ``srcs``; returns the dst vreg."""
        return self._alu(OpClass.IALU, RegClass.INT, srcs, dst, comment)

    def fop(self, *srcs: int, dst: Optional[int] = None, comment: str = "") -> int:
        """Emit a floating-point op reading ``srcs``; returns the dst vreg."""
        return self._alu(OpClass.FALU, RegClass.FP, srcs, dst, comment)

    def branch(self, *srcs: int, comment: str = "") -> None:
        """Emit the loop-closing branch (perfectly predicted)."""
        self._ops.append(VOp(OpClass.BRANCH, srcs=tuple(srcs), comment=comment))

    # -- assembly ------------------------------------------------------------------

    def build(self) -> Kernel:
        """Finish the kernel, appending loop overhead if requested.

        The default overhead is the paper-model loop control: an
        induction-variable increment (loop-carried integer add) and the
        loop branch reading it.
        """
        ops = list(self._ops)
        classes = dict(self._classes)
        if self._loop_overhead:
            induction = self._next_vreg
            classes[induction] = RegClass.INT
            # The increment reads its own previous-iteration value
            # (src == dst, a loop-carried dependence).
            ops.append(
                VOp(OpClass.IALU, dst=induction, srcs=(induction,),
                    comment="induction")
            )
            ops.append(
                VOp(OpClass.BRANCH, srcs=(induction,), comment="loop branch")
            )
        return Kernel(
            name=self.name,
            ops=ops,
            vreg_classes=classes,
            num_streams=self._num_streams,
        )
