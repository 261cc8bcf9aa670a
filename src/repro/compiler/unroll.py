"""Loop unrolling with virtual-register renaming.

The paper's load-latency sweep only pays off if the compiler can find
independent instructions to hoist between a load and its use; for loop
kernels that parallelism comes from unrolling ("[tomcatv] contains two
nested loops which are unrolled many times by the compiler",
Section 4).  Unrolling by ``factor`` concatenates ``factor`` renamed
copies of the body.  Renaming gives each copy fresh destinations so the
copies are independent except where the original kernel had genuine
loop-carried dependences, which are re-linked copy-to-copy:

* an intra-iteration use in copy *k* reads copy *k*'s definition;
* a loop-carried use in copy *k* reads copy *k-1*'s definition, and in
  copy 0 reads the *last* copy's definition (the dependence now crosses
  the unrolled loop's back edge);
* invariant vregs are shared by all copies.

Branches interior to the unrolled body are dropped (the copies fall
through); only the final copy keeps its loop-closing branch.
"""

from __future__ import annotations

from typing import Dict, List

from repro.compiler.ir import Kernel, VOp
from repro.cpu.isa import OpClass
from repro.errors import CompilationError


def unroll(kernel: Kernel, factor: int) -> Kernel:
    """Return ``kernel`` unrolled ``factor`` times.

    ``factor == 1`` returns the kernel unchanged.
    """
    if factor < 1:
        raise CompilationError(f"unroll factor must be >= 1: {factor}")
    if factor == 1:
        return kernel

    defs = kernel.defs()
    defined = set(defs)
    classes = dict(kernel.vreg_classes)
    next_vreg = max(classes) + 1 if classes else 0

    # Fresh names for every defined vreg in every copy.  The walk is
    # over the set, not ``defs``: the numbering orders the allocator's
    # ``sorted(permanent)`` and so decides the register assignment.
    renames: List[Dict[int, int]] = []
    for _ in range(factor):
        mapping: Dict[int, int] = {}
        for vreg in defined:
            mapping[vreg] = next_vreg
            classes[next_vreg] = kernel.vreg_classes[vreg]
            next_vreg += 1
        renames.append(mapping)

    new_ops: List[VOp] = []
    last_copy = factor - 1
    for copy in range(factor):
        mapping = renames[copy]
        prev_mapping = renames[copy - 1] if copy > 0 else renames[last_copy]
        for idx, op in enumerate(kernel.ops):
            if op.op is OpClass.BRANCH and copy != last_copy:
                continue  # interior branches fall through
            srcs = []
            for src in op.srcs:
                if src not in defined:
                    srcs.append(src)  # invariant, shared
                elif defs[src] < idx:
                    srcs.append(mapping[src])  # intra-iteration
                else:
                    srcs.append(prev_mapping[src])  # loop-carried
            dst = mapping[op.dst] if op.dst is not None else None
            new_ops.append(
                VOp(op.op, dst, tuple(srcs), op.stream, op.width, op.comment)
            )

    return Kernel(
        name=f"{kernel.name}*{factor}",
        ops=new_ops,
        vreg_classes=classes,
        num_streams=kernel.num_streams,
    )
