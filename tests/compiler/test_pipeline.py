"""Tests for the compile_kernel driver and its unrolling policy."""

import pytest

from repro.compiler.ir import KernelBuilder
from repro.compiler.pipeline import compile_kernel, unroll_factor_for
from repro.cpu.isa import OpClass
from repro.errors import CompilationError


def kernel():
    b = KernelBuilder("k")
    s_in = b.declare_stream()
    s_out = b.declare_stream()
    b.store(s_out, b.fop(b.load(s_in)))
    return b.build()


class TestUnrollPolicy:
    def test_latency_one_never_unrolls(self):
        assert unroll_factor_for(1, max_unroll=16) == 1

    def test_grows_with_latency(self):
        f6 = unroll_factor_for(6, 16)
        f20 = unroll_factor_for(20, 16)
        assert f20 > f6 > 1

    def test_clamped_by_max(self):
        assert unroll_factor_for(20, 4) == 4
        assert unroll_factor_for(20, 1) == 1


class TestCompileKernel:
    def test_body_scales_with_unroll(self):
        k = kernel()
        lat1 = compile_kernel(k, 1)
        lat10 = compile_kernel(k, 10, max_unroll=8)
        assert lat1.unroll_factor == 1
        assert lat10.unroll_factor > 1
        assert lat10.num_instructions > lat1.num_instructions

    def test_per_original_iteration_stable_without_spills(self):
        k = kernel()
        lat1 = compile_kernel(k, 1).facts()
        instr1, loads1, stores1 = lat1.per_original_iteration()
        # Unrolling drops interior branches, so the per-iteration count
        # shrinks slightly; loads and stores are exactly preserved.
        lat10 = compile_kernel(k, 10).facts()
        _, loads10, stores10 = lat10.per_original_iteration()
        assert loads10 == pytest.approx(loads1)
        assert stores10 == pytest.approx(stores1)

    def test_num_streams_without_spills(self):
        body = compile_kernel(kernel(), 10)
        assert body.spill_count == 0
        assert body.num_streams == kernel().num_streams

    def test_counts_match_instructions(self):
        body = compile_kernel(kernel(), 6)
        loads = sum(1 for i in body.instructions if i.op is OpClass.LOAD)
        assert body.num_loads == loads

    def test_rejects_bad_max_unroll(self):
        with pytest.raises(CompilationError):
            compile_kernel(kernel(), 10, max_unroll=0)

    def test_schedule_attached(self):
        body = compile_kernel(kernel(), 6)
        assert body.schedule.load_latency == 6
        assert len(body.schedule.order) > 0
