"""Reference execution engines: the unoptimized oracle loops.

These are the original single- and dual-issue interpreter loops, kept
verbatim as the bit-exactness oracle for the closed form, the scalar
replay kernels (:mod:`repro.cpu.replay`) and the C kernel's replay
and dual-issue drivers (:mod:`repro.cpu.ckernel`).  Every access --
hit or miss -- goes through the handler's ``load``/``store`` methods,
and the body is re-dispatched op by op from parallel lists.  They are
also the only interpreters: interp-lane cells (a finite write buffer,
a warmup discard, a single-issue perfect cache) run here, and so does
every dual-issue cell without a C compiler.

:func:`repro.sim.simulator.simulate_reference` runs a cell here; the
equivalence suites (``tests/sim/test_fastpath_equivalence.py`` and
``tests/sim/test_fusion_equivalence.py``) assert every lane produces a
byte-identical :class:`~repro.sim.stats.SimulationResult`.  Do not
optimize this module; its value is being boring.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.cpu.isa import NUM_REGS, OpClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.trace import ExpandedTrace


def run_single_issue_reference(
    trace: "ExpandedTrace", handler, warmup_executions: int = 0
) -> Tuple[int, int, int]:
    """Execute the trace; returns (cycles, instructions, truedep_stalls).

    The single-issue machine of :mod:`repro.cpu.pipeline`.  ``handler``
    is a :class:`~repro.core.handler.MissHandler`, a
    :class:`~repro.cpu.pipeline.PerfectCacheHandler` or a wrapper such
    as :class:`~repro.sim.tracelog.TracingHandler`; every access goes
    through its ``load``/``store``.  ``warmup_executions`` discards the
    first N body executions from every returned count and from the
    handler's statistics (cache state is kept, so the measured window
    starts warm) -- the control the paper's billion-reference runs
    never needed.
    """
    body = trace.body
    n_body = len(body)
    executions = trace.executions

    # Flatten per-op fields into parallel lists for the hot loop.
    kinds = [int(op.op) for op in body]
    dsts = [op.dst if op.dst is not None else -1 for op in body]
    srcs = [op.srcs for op in body]
    addresses = trace.addresses

    load_k = int(OpClass.LOAD)
    store_k = int(OpClass.STORE)

    reg_ready = [0] * NUM_REGS
    cycle = 0
    truedep = 0
    do_load = handler.load
    do_store = handler.store

    if warmup_executions >= executions:
        warmup_executions = max(0, executions - 1)
    base_cycles = base_truedep = 0
    base_stats = None

    for it in range(executions):
        if it == warmup_executions and warmup_executions > 0:
            base_cycles = cycle
            base_truedep = truedep
            base_stats = handler.checkpoint(cycle)
        for j in range(n_body):
            kind = kinds[j]
            for s in srcs[j]:
                r = reg_ready[s]
                if r > cycle:
                    truedep += r - cycle
                    cycle = r
            if kind == load_k:
                d = dsts[j]
                r = reg_ready[d]
                if r > cycle:  # WAW on a pending fill
                    truedep += r - cycle
                    cycle = r
                addr_list = addresses[j]
                nxt, ready, _outcome = do_load(addr_list[it], cycle)
                reg_ready[d] = ready
                cycle = nxt
            elif kind == store_k:
                addr_list = addresses[j]
                nxt, _hit = do_store(addr_list[it], cycle)
                cycle = nxt
            else:
                d = dsts[j]
                if d >= 0:
                    r = reg_ready[d]
                    if r > cycle:  # WAW on a pending fill
                        truedep += r - cycle
                        cycle = r
                    reg_ready[d] = cycle + 1
                cycle += 1

    handler.finalize(cycle)
    if base_stats is not None:
        handler.stats = handler.stats.minus(base_stats)
        measured = executions - warmup_executions
        return cycle - base_cycles, n_body * measured, truedep - base_truedep
    return cycle, n_body * executions, truedep


def run_dual_issue_reference(trace: "ExpandedTrace", handler) -> Tuple[int, int, int]:
    """Execute the trace 2-wide; returns (cycles, instructions, truedep).

    The dual-issue in-order core of Section 6, which gauges the scaling
    rule for superscalar machines against single-issue runs:

    * up to two instructions issue per cycle, in order;
    * results are available in the next cycle, so the second slot may
      not read (or overwrite) the first slot's destination;
    * one memory port: at most one load or store per cycle;
    * any stall (register not ready, structural hazard, blocking miss)
      freezes both slots until resolved.

    ``truedep`` counts cycles in which issue was delayed purely by
    register readiness (approximate on this model; the headline
    quantity for Section 6 is the cycle count, and MCPI is taken
    against a perfect-cache run, see
    :func:`repro.analysis.scaling.dual_issue_mcpi`).
    """
    body = trace.body
    n_body = len(body)
    executions = trace.executions

    kinds = [int(op.op) for op in body]
    dsts = [op.dst if op.dst is not None else -1 for op in body]
    srcs = [op.srcs for op in body]
    addresses = trace.addresses

    load_k = int(OpClass.LOAD)
    store_k = int(OpClass.STORE)

    reg_ready = [0] * NUM_REGS
    cycle = 0
    slot = 0
    mem_used = False
    written_this_cycle = [-1, -1]
    truedep = 0
    do_load = handler.load
    do_store = handler.store

    for it in range(executions):
        for j in range(n_body):
            kind = kinds[j]
            is_mem = kind == load_k or kind == store_k
            d = dsts[j]

            # Earliest cycle at which operands (and dst, for WAW) allow issue.
            ready = 0
            for s in srcs[j]:
                r = reg_ready[s]
                if r > ready:
                    ready = r
            if d >= 0:
                r = reg_ready[d]
                if r > ready:
                    ready = r

            # Does this instruction fit in the current cycle?
            fits = slot < 2 and not (is_mem and mem_used)
            if fits and (
                written_this_cycle[0] in srcs[j]
                or written_this_cycle[1] in srcs[j]
                or (d >= 0 and (d == written_this_cycle[0] or d == written_this_cycle[1]))
            ):
                fits = False  # same-cycle dependence: wait for next cycle
            start = cycle if fits else cycle + 1
            if ready > start:
                truedep += ready - start
                start = ready
            if start > cycle:
                slot = 0
                mem_used = False
                written_this_cycle[0] = -1
                written_this_cycle[1] = -1
                cycle = start

            if kind == load_k:
                nxt, data_ready, _outcome = do_load(addresses[j][it], cycle)
                reg_ready[d] = data_ready
                mem_used = True
                written_this_cycle[slot] = d
                slot += 1
                if nxt > cycle + 1:
                    # The handler stalled the machine (structural or
                    # blocking miss): resume single-file at `nxt`.
                    cycle = nxt
                    slot = 0
                    mem_used = False
                    written_this_cycle[0] = -1
                    written_this_cycle[1] = -1
            elif kind == store_k:
                nxt, _hit = do_store(addresses[j][it], cycle)
                mem_used = True
                slot += 1
                if nxt > cycle + 1:
                    cycle = nxt
                    slot = 0
                    mem_used = False
                    written_this_cycle[0] = -1
                    written_this_cycle[1] = -1
            else:
                if d >= 0:
                    reg_ready[d] = cycle + 1
                    written_this_cycle[slot] = d
                slot += 1

    end = cycle + 1  # the final cycle is occupied
    handler.finalize(end)
    return end, n_body * executions, truedep
