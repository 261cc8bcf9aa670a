"""Exact-cycle tests for the single-issue model on hand-built traces."""

from typing import List, Optional, Sequence

from repro.cache.geometry import CacheGeometry
from repro.cache.memory import PipelinedMemory
from repro.core.handler import MissHandler
from repro.core.policies import blocking_cache, mc, no_restrict
from repro.cpu.isa import Instruction, OpClass
from repro.cpu.pipeline import PerfectCacheHandler
from repro.cpu.reference import run_single_issue_reference
from repro.sim.trace import ExpandedTrace

GEOM = CacheGeometry(size=8 * 1024, line_size=32, associativity=1)


def trace(
    body: Sequence[Instruction],
    addresses: Sequence[Optional[List[int]]],
    executions: int = 1,
) -> ExpandedTrace:
    return ExpandedTrace(
        body=tuple(body),
        addresses=list(addresses),
        executions=executions,
        workload_name="hand-built",
    )


def handler(policy=None) -> MissHandler:
    return MissHandler(
        policy if policy is not None else no_restrict(),
        GEOM,
        PipelinedMemory(miss_penalty=16),
    )


LOAD = lambda dst, stream=0: Instruction(OpClass.LOAD, dst=dst, stream=stream)
IALU = lambda dst, *srcs: Instruction(OpClass.IALU, dst=dst, srcs=srcs)
STORE = lambda src, stream=0: Instruction(OpClass.STORE, srcs=(src,), stream=stream)


class TestIdealTiming:
    def test_alu_stream_is_one_cpi(self):
        body = [IALU(1), IALU(2), IALU(3)]
        cycles, instructions, truedep = run_single_issue_reference(
            trace(body, [None, None, None], executions=10), handler()
        )
        assert instructions == 30
        assert cycles == 30
        assert truedep == 0

    def test_repeated_load_same_register_waits_for_fill(self):
        # One load per execution, always to the same destination
        # register: execution 1 hits the scoreboard WAW interlock and
        # waits for execution 0's fill; after that every load hits and
        # costs one cycle.
        body = [LOAD(32)]
        cycles, instructions, truedep = run_single_issue_reference(
            trace(body, [[0x100] * 5], executions=5), handler()
        )
        assert instructions == 5
        # load@0 (fill 17), WAW stall 1->17, then hits at 17..20.
        assert cycles == 21
        assert truedep == 16

    def test_dependent_alu_no_stall(self):
        # Single-cycle producers never stall consumers.
        body = [IALU(1), IALU(2, 1)]
        cycles, _, truedep = run_single_issue_reference(
            trace(body, [None, None], executions=4), handler()
        )
        assert cycles == 8
        assert truedep == 0


class TestMissTiming:
    def test_load_use_stall_equals_penalty(self):
        # load at cycle 0 (fill at 17); use stalls 16 cycles.
        body = [LOAD(32), IALU(1, 32)]
        cycles, instructions, truedep = run_single_issue_reference(
            trace(body, [[0x100], None]), handler()
        )
        assert instructions == 2
        assert truedep == 16
        assert cycles == 18  # issue 0, stall to 17, +1

    def test_independent_work_hides_latency(self):
        # Sixteen independent ALUs between load and use: no stall.
        body = [LOAD(32)] + [IALU(i) for i in range(1, 17)] + [IALU(20, 32)]
        addresses = [[0x100]] + [None] * 17
        cycles, instructions, truedep = run_single_issue_reference(
            trace(body, addresses), handler()
        )
        assert truedep == 0
        assert cycles == instructions

    def test_blocking_load_stalls_at_load(self):
        body = [LOAD(32), IALU(1)]  # the ALU is independent
        cycles, _, truedep = run_single_issue_reference(
            trace(body, [[0x100], None]), handler(blocking_cache())
        )
        # Blocking: load costs 1+16, ALU 1.
        assert cycles == 18
        assert truedep == 0

    def test_two_overlapped_misses_unrestricted(self):
        body = [LOAD(32), LOAD(33, 1), IALU(1, 32), IALU(2, 33)]
        addresses = [[0x100], [0x200], None, None]
        cycles, _, truedep = run_single_issue_reference(
            trace(body, addresses), handler()
        )
        # load@0 (fill 17), load@1 (fill 18), use@2 stalls to 17,
        # use@18 ready (fill 18 at cycle 18) -> issues 18, ends 19.
        assert cycles == 19

    def test_two_misses_hit_under_miss_serialize(self):
        body = [LOAD(32), LOAD(33, 1), IALU(1, 32), IALU(2, 33)]
        addresses = [[0x100], [0x200], None, None]
        cycles, _, _ = run_single_issue_reference(
            trace(body, addresses), handler(mc(1))
        )
        # Second load structurally stalls until 17 and refetches (fill
        # at 34); the first use issues during the wait, the second
        # stalls until the refetched fill.
        assert cycles == 35

    def test_waw_on_pending_fill_stalls(self):
        # Rewriting a register whose fill is outstanding waits for it.
        body = [LOAD(32), IALU(32)]
        cycles, _, truedep = run_single_issue_reference(
            trace(body, [[0x100], None]), handler()
        )
        assert truedep == 16
        assert cycles == 18

    def test_store_is_timing_neutral(self):
        body = [IALU(1), STORE(1)]
        cycles, _, _ = run_single_issue_reference(
            trace(body, [None, [0x300] * 3], executions=3), handler()
        )
        assert cycles == 6


class TestAccountingIdentity:
    def test_stalls_fully_attributed(self):
        body = [LOAD(32), IALU(1, 32), LOAD(33, 1), IALU(2, 33), STORE(2)]
        addresses = [[0x100 + 64 * i for i in range(20)], None,
                     [0x4000 + 64 * i for i in range(20)], None,
                     [0x8000] * 20]
        h = handler(mc(1))
        cycles, instructions, truedep = run_single_issue_reference(
            trace(body, addresses, executions=20), h
        )
        memory_stalls = h.stats.memory_stall_cycles
        assert cycles - instructions == truedep + memory_stalls


class TestPerfectCache:
    def test_every_access_hits(self):
        body = [LOAD(32), IALU(1, 32)]
        h = PerfectCacheHandler()
        cycles, instructions, truedep = run_single_issue_reference(
            trace(body, [[0x100] * 8, None], executions=8), h
        )
        assert cycles == instructions
        assert truedep == 0
        assert h.stats.load_hits == 8
