"""Per-trace specialization of the single-issue engine.

The flattened program (:meth:`repro.sim.trace.ExpandedTrace.program`)
is still interpreted: every op pays tuple indexing and a dispatch
chain.  Since the paper's methodology executes one loop body millions
of times, it is worth compiling each trace's program *once* into a
straight-line Python function -- constants (register indices, skip
lengths) folded into the source, address buffers bound as closure
locals, the hit fast path inlined at every memory op -- and then
calling that function for the whole run.  This is the same
specialization trick the standard library uses for ``namedtuple``.

The generated function is exact by construction: it emits, for each
program entry, precisely the statements the interpreter would have
executed, in the same order.  ``tests/sim/test_fastpath_equivalence.py``
checks the result against the reference engine for every policy
family.

Fast-path contract (see ``docs/performance.md``): a load or store may
be accounted inline as a 1-cycle hit iff

* ``cycle < fence`` where ``fence`` is the earliest outstanding fill
  time (:meth:`repro.core.handler.MissHandler.next_fill_time`) -- up
  to that cycle the handler's ``_drain`` is a no-op, so no fill can
  install or evict a line first;
* the block probe succeeds (``hit_probe``: resident-set membership,
  plus the LRU touch for set-associative tag stores); and
* for stores, the write buffer is the ideal count-only one.

Everything else falls through to the handler call, after which the
fence is re-read.  When no hooks are supplied the caller passes
``fence = -1`` and every access takes the handler path, which is how
wrapped handlers (e.g. the access tracer) retain exact per-access
behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List

from repro.core.handler import FAR_FUTURE
from repro.sim.trace import P_LOAD, P_SCALAR, P_SKIP, P_STORE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.trace import ExpandedTrace


def _emit_stall_check(lines: List[str], ind: str, reg: int) -> None:
    """Emit the readiness check the interpreter performs on ``rr[reg]``."""
    lines.append(f"{ind}r = rr[{reg}]")
    lines.append(f"{ind}if r > cycle:")
    lines.append(f"{ind}    truedep += r - cycle")
    lines.append(f"{ind}    cycle = r")


def build_single_issue_fn(trace: "ExpandedTrace") -> Callable:
    """Compile ``trace`` into its specialized single-issue body runner.

    The returned function has signature::

        run(it0, it1, cycle, truedep, rr, do_load, do_store,
            probe, next_fill, smode, ob, fence, res)
            -> (cycle, truedep, fence, fast_loads, fast_stores,
                fast_store_misses)

    executing body iterations ``it0..it1-1``.  ``rr`` (the register
    readiness list) is mutated in place; everything else is threaded
    through arguments and results so a warmup checkpoint can split the
    run in two.  ``smode`` is the hooks' store grading: 0 -- every
    store slow-paths; 1 -- hits inline; 2 -- hits and misses inline
    (write-around with the ideal write buffer launches no fetch on a
    store miss, so both outcomes are pure counter updates).

    ``res`` is the pure resident-block set from the handler's hooks
    (or ``None``).  When it is available and no fetch is outstanding
    (``fence == FAR_FUTURE``), the runner enters the *turbo lane*: a
    single ``and``-chain of set-membership tests decides whether an
    entire body execution hits, and consecutive all-hit executions
    collapse into one arithmetic update.  This is exact because with
    an empty fetch FIFO every register's ready time is already in the
    past (fills only publish future times while their fetch is
    queued), so an all-hit execution can stall nothing, advances the
    clock by exactly the body length, and touches only the hit
    counters.  Register ready times are left stale -- every stale
    value is <= the current cycle, which no later readiness check can
    distinguish from the reference's equally-passed values.
    """
    program = trace.program()
    n_loads = sum(1 for op in program if op[0] == P_LOAD)
    n_stores = sum(1 for op in program if op[0] == P_STORE)
    body_len = len(trace.body)
    lines: List[str] = []
    w = lines.append
    w("def _factory(bufs):")
    buffers = []
    mem_idx: List[int] = []
    for i, op in enumerate(program):
        if op[0] == P_LOAD:
            buffers.append(op[3])
        elif op[0] == P_STORE:
            buffers.append(op[2])
        else:
            continue
        mem_idx.append(i)
        w(f"    A{i} = bufs[{len(buffers) - 1}]")
    w("    def run(it0, it1, cycle, truedep, rr, do_load, do_store,")
    w("            probe, next_fill, smode, ob, fence, res):")
    w("        fast_loads = 0")
    w("        fast_stores = 0")
    w("        fast_smiss = 0")
    w("        smiss_ok = smode == 2")
    w("        sfence = fence if smode else -1")
    if n_stores:
        # Turbo executions account stores inline, so the lane needs
        # the count-only write buffer just like the per-op store path.
        w("        if not smode:")
        w("            res = None")
    w("        skip = 0")
    w("        it = it0")
    w("        while it < it1:")
    if mem_idx:
        # A failed attempt costs up to one probe per memory op, so
        # after a whiff the lane backs off and lets the per-op fast
        # path carry the next executions; probes are pure, so trying
        # (or not trying) the chain never changes the simulation.
        chain = " and ".join(f"(A{i}[it] >> ob) in res" for i in mem_idx)
        w("            if res is not None and fence == FAR_FUTURE:")
        w("                if skip:")
        w("                    skip -= 1")
        w("                else:")
        w("                    start = it")
        w(f"                    while it < it1 and {chain}:")
        w("                        it += 1")
        w("                    k = it - start")
        w("                    if k:")
        w(f"                        cycle += {body_len} * k")
        if n_loads:
            w(f"                        fast_loads += {n_loads} * k")
        if n_stores:
            w(f"                        fast_stores += {n_stores} * k")
        w("                        if it == it1:")
        w("                            break")
        w("                    else:")
        w("                        skip = 32")
    ind = " " * 12
    for i, op in enumerate(program):
        kind = op[0]
        if kind == P_SKIP:
            w(f"{ind}cycle += {op[1]}")
        elif kind == P_LOAD:
            dst, srcs = op[1], op[2]
            for s in srcs:
                _emit_stall_check(lines, ind, s)
            _emit_stall_check(lines, ind, dst)  # WAW on a pending fill
            w(f"{ind}addr = A{i}[it]")
            w(f"{ind}if cycle < fence and probe(addr >> ob):")
            w(f"{ind}    fast_loads += 1")
            w(f"{ind}    cycle += 1")
            w(f"{ind}    rr[{dst}] = cycle")
            w(f"{ind}else:")
            w(f"{ind}    nxt, ready, _o = do_load(addr, cycle)")
            w(f"{ind}    rr[{dst}] = ready")
            w(f"{ind}    cycle = nxt")
            w(f"{ind}    fence = next_fill()")
            w(f"{ind}    sfence = fence if smode else -1")
        elif kind == P_STORE:
            srcs = op[1]
            for s in srcs:
                _emit_stall_check(lines, ind, s)
            # The slow call appears in two arms: a miss under smode<2
            # (the probe, being a miss, touched no replacement state,
            # so the handler may re-access) and any store at/after the
            # fence.
            slow = (f"nxt, _h = do_store(addr, cycle); cycle = nxt; "
                    f"fence = next_fill(); sfence = fence if smode else -1")
            w(f"{ind}addr = A{i}[it]")
            w(f"{ind}if cycle < sfence:")
            w(f"{ind}    if probe(addr >> ob):")
            w(f"{ind}        fast_stores += 1")
            w(f"{ind}        cycle += 1")
            w(f"{ind}    elif smiss_ok:")
            w(f"{ind}        fast_smiss += 1")
            w(f"{ind}        cycle += 1")
            w(f"{ind}    else:")
            w(f"{ind}        {slow}")
            w(f"{ind}else:")
            w(f"{ind}    {slow}")
        else:  # P_SCALAR
            dst, srcs = op[1], op[2]
            for s in srcs:
                _emit_stall_check(lines, ind, s)
            if dst >= 0:
                _emit_stall_check(lines, ind, dst)  # scoreboard WAW
                w(f"{ind}cycle += 1")
                w(f"{ind}rr[{dst}] = cycle")
            else:
                w(f"{ind}cycle += 1")
    w(f"{ind}it += 1")
    w("        return (cycle, truedep, fence, fast_loads, fast_stores,")
    w("                fast_smiss)")
    w("    return run")
    source = "\n".join(lines)
    namespace: dict = {"FAR_FUTURE": FAR_FUTURE}
    exec(compile(source, f"<single-issue:{trace.workload_name}>", "exec"),
         namespace)
    return namespace["_factory"](buffers)


def specialized_single_issue(trace: "ExpandedTrace") -> Callable:
    """The trace's specialized runner, built on first use and cached."""
    fn = trace._single_issue_fn
    if fn is None:
        fn = build_single_issue_fn(trace)
        trace._single_issue_fn = fn
    return fn
