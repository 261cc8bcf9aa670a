"""Property tests for the dual-issue machine: the reference loop and
the C driver that must equal it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.memory import PipelinedMemory
from repro.core.handler import MissHandler
from repro.core.policies import (
    MSHRPolicy,
    blocking_cache,
    fc,
    fs,
    implicit,
    in_cache,
    mc,
    no_restrict,
)
from repro.cpu import ckernel
from repro.cpu.isa import Instruction, OpClass
from repro.cpu.pipeline import PerfectCacheHandler
from repro.cpu.reference import (
    run_dual_issue_reference,
    run_single_issue_reference,
)
from repro.cpu.replay_cnative import run_dual_issue
from repro.sim.config import MachineConfig
from repro.sim.trace import ExpandedTrace

GEOM = CacheGeometry(size=1024, line_size=32, associativity=1)


@st.composite
def random_traces(draw):
    """Random small well-formed traces (ALU/LOAD/STORE mixes)."""
    n_ops = draw(st.integers(min_value=1, max_value=12))
    executions = draw(st.integers(min_value=1, max_value=20))
    body = []
    addresses = []
    defined = []
    for i in range(n_ops):
        kind = draw(st.sampled_from(["alu", "load", "store"]))
        if kind == "load":
            dst = 32 + i  # distinct FP registers
            body.append(Instruction(OpClass.LOAD, dst=dst, stream=0))
            base = draw(st.integers(min_value=0, max_value=127)) * 32
            addresses.append([base + 8 * (e % 4) for e in range(executions)])
            defined.append(dst)
        elif kind == "store" and defined:
            src = draw(st.sampled_from(defined))
            body.append(Instruction(OpClass.STORE, srcs=(src,), stream=1))
            addresses.append([draw(st.integers(0, 63)) * 32] * executions)
        else:
            dst = 1 + i
            srcs = tuple(
                draw(st.sampled_from(defined))
                for _ in range(draw(st.integers(0, min(2, len(defined)))))
            ) if defined else ()
            body.append(Instruction(OpClass.IALU, dst=dst, srcs=srcs))
            addresses.append(None)
            defined.append(dst)
    return ExpandedTrace(body=tuple(body), addresses=addresses,
                         executions=executions, workload_name="rand")


policies = st.sampled_from([mc(1), no_restrict()])


@settings(max_examples=60, deadline=None)
@given(trace=random_traces(), policy=policies)
def test_dual_issue_bounded_by_single_issue(trace, policy):
    """Dual issue is never slower than single issue, and at most 2x
    faster (same instruction count, >= half the cycles)."""
    single = MissHandler(policy, GEOM, PipelinedMemory(16))
    dual = MissHandler(policy, GEOM, PipelinedMemory(16))
    s_cycles, s_instr, _ = run_single_issue_reference(trace, single)
    d_cycles, d_instr, _ = run_dual_issue_reference(trace, dual)
    assert d_instr == s_instr
    assert d_cycles <= s_cycles + 1  # +1 for the end-of-run convention
    assert d_cycles >= (s_instr + 1) // 2


@settings(max_examples=60, deadline=None)
@given(trace=random_traces())
def test_dual_issue_perfect_cache_ipc_bounds(trace):
    cycles, instructions, _ = run_dual_issue_reference(
        trace, PerfectCacheHandler())
    ipc = instructions / cycles
    assert 0.5 <= ipc <= 2.0


@settings(max_examples=40, deadline=None)
@given(trace=random_traces(), policy=policies)
def test_dual_issue_deterministic(trace, policy):
    a = run_dual_issue_reference(
        trace, MissHandler(policy, GEOM, PipelinedMemory(16)))
    b = run_dual_issue_reference(
        trace, MissHandler(policy, GEOM, PipelinedMemory(16)))
    assert a == b


#: Every clause the C driver switches on: blocking with and without
#: write-miss allocate, each MSHR limit, a limited field layout, the
#: in-cache fill overhead, ported fills.
ALL_POLICIES = [
    blocking_cache(), blocking_cache(write_allocate=True), mc(1), mc(2),
    fc(1), fc(2), fs(1), no_restrict(), implicit(32, 8), in_cache(),
    MSHRPolicy(name="ported", fill_ports=1),
]


@pytest.mark.skipif(not ckernel.kernels_available(),
                    reason="no C compiler available")
@settings(max_examples=80, deadline=None)
@given(trace=random_traces(), policy=st.sampled_from(ALL_POLICIES),
       ways=st.sampled_from([1, 2, 4, 0]),
       penalty=st.integers(min_value=1, max_value=24),
       perfect=st.sampled_from([False, False, False, True]))
def test_c_driver_matches_reference(trace, policy, ways, penalty, perfect):
    """The C dual-issue driver equals the reference loop field for
    field, over policy x associativity x miss latency."""
    config = MachineConfig(
        geometry=CacheGeometry(size=1024, line_size=32, associativity=ways),
        policy=policy, miss_penalty=penalty, issue_width=2,
        perfect_cache=perfect,
    )
    handler = PerfectCacheHandler() if perfect else config.make_handler()
    cycles, instructions, truedep = run_dual_issue_reference(trace, handler)
    assert run_dual_issue(trace, config) == (
        (handler.stats, cycles, instructions, truedep), None)
