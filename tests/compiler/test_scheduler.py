"""Tests for the latency-driven list scheduler."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.compiler.ir import Kernel, KernelBuilder, RegClass, VOp
from repro.compiler.scheduler import (
    HOIST_SLACK,
    Schedule,
    list_schedule,
    load_use_distances,
)
from repro.compiler.unroll import unroll
from repro.cpu.isa import OpClass
from repro.errors import CompilationError


def padded_kernel(pad: int = 12):
    """A load-use pair plus independent padding to hoist across."""
    b = KernelBuilder("padded", loop_overhead=False)
    s_in = b.declare_stream()
    s_out = b.declare_stream()
    seed = b.vreg(RegClass.INT)
    x = b.load(s_in)
    y = b.fop(x)
    b.store(s_out, y)
    for _ in range(pad):
        b.iop(seed)
    return b.build()


def assert_schedule_legal(kernel: Kernel, schedule: Schedule) -> None:
    """Dependence-order checks every schedule must satisfy."""
    assert sorted(schedule.order) == list(range(len(kernel.ops)))
    position = {op: pos for pos, op in enumerate(schedule.order)}
    defs = kernel.defs()
    for use_idx, op in enumerate(kernel.ops):
        for src in op.srcs:
            def_idx = defs.get(src)
            if def_idx is None or def_idx == use_idx:
                continue
            if def_idx < use_idx:
                # True dependence: def before use.
                assert position[def_idx] < position[use_idx]
            else:
                # Loop-carried: the use must stay ahead of the redef.
                assert position[use_idx] < position[def_idx]


class TestBasicScheduling:
    def test_schedule_is_permutation(self):
        kernel = padded_kernel()
        schedule = list_schedule(kernel, 10)
        assert_schedule_legal(kernel, schedule)

    def test_latency_one_keeps_use_close(self):
        kernel = padded_kernel()
        schedule = list_schedule(kernel, 1)
        distances = load_use_distances(kernel, schedule)
        assert max(distances.values()) <= 4

    def test_larger_latency_increases_distance(self):
        kernel = padded_kernel()
        d1 = load_use_distances(kernel, list_schedule(kernel, 1))
        d10 = load_use_distances(kernel, list_schedule(kernel, 10))
        assert max(d10.values()) > max(d1.values())

    def test_distance_bounded_by_available_work(self):
        # With only 3 pad ops, even latency 20 cannot make distance 20.
        kernel = padded_kernel(pad=3)
        schedule = list_schedule(kernel, 20)
        distances = load_use_distances(kernel, schedule)
        assert max(distances.values()) <= 5

    def test_deterministic(self):
        kernel = padded_kernel()
        a = list_schedule(kernel, 6)
        b = list_schedule(kernel, 6)
        assert a.order == b.order

    def test_rejects_zero_latency(self):
        with pytest.raises(CompilationError):
            list_schedule(padded_kernel(), 0)

    def test_makespan_positive(self):
        schedule = list_schedule(padded_kernel(), 6)
        assert schedule.makespan >= len(padded_kernel().ops)

    def test_self_loop_op_schedulable(self):
        # i = i + 1 (src == dst) must not deadlock the scheduler.
        kernel = Kernel(
            name="self",
            ops=[VOp(OpClass.IALU, dst=0, srcs=(0,))],
            vreg_classes={0: RegClass.INT},
            num_streams=0,
        )
        assert list_schedule(kernel, 4).order == (0,)


class TestPressureAwareness:
    def test_wide_unroll_does_not_explode_liveness(self):
        """With many parallel loads the scheduler interleaves consumers."""
        b = KernelBuilder("wide", loop_overhead=False)
        s = b.declare_stream()
        out = b.declare_stream()
        for _ in range(6):
            x = b.load(s)
            b.store(out, b.fop(x))
        kernel = unroll(b.build(), 10)  # 60 parallel loads
        schedule = list_schedule(kernel, 10)
        # Walk the schedule tracking FP liveness; the throttle should
        # keep it within the architected file.
        position_ops = [kernel.ops[i] for i in schedule.order]
        defs = kernel.defs()
        remaining = {}
        for idx, op in enumerate(kernel.ops):
            for src in op.srcs:
                if src in defs and defs[src] < idx:
                    remaining[src] = remaining.get(src, 0) + 1
        live = 0
        peak = 0
        for op in position_ops:
            if op.dst is not None and op.dst in remaining:
                live += 1
                peak = max(peak, live)
            for src in set(op.srcs):
                if src in remaining:
                    remaining[src] -= op.srcs.count(src)
                    if remaining[src] <= 0:
                        del remaining[src]
                        live -= 1
        assert peak <= 32


@st.composite
def random_dag_kernels(draw):
    """Random kernel bodies of up to 120 ops.

    Loads over declared streams (some address-dependent), integer and
    floating-point ops and stores, reading earlier values, loop-carried
    values (a use at or before its def) and invariants.  Long bodies
    keep enough temporaries live that a register class saturates, so
    the pressure throttle and the load release times both engage.
    """
    n = draw(st.integers(min_value=2, max_value=120))
    num_streams = draw(st.integers(min_value=1, max_value=4))
    n_invariants = draw(st.integers(min_value=0, max_value=3))
    kinds = draw(st.lists(
        st.sampled_from([OpClass.LOAD, OpClass.LOAD, OpClass.IALU,
                         OpClass.FALU, OpClass.STORE]),
        min_size=n, max_size=n,
    ))
    # Op i defines vreg i (a store's vreg stays undefined, so reading
    # it reads an invariant); vregs n.. are invariant bases.
    classes = {n + k: RegClass.INT for k in range(n_invariants)}
    for i, kind in enumerate(kinds):
        if kind is OpClass.LOAD:
            classes[i] = draw(st.sampled_from([RegClass.INT, RegClass.FP]))
        else:
            classes[i] = RegClass.FP if kind is OpClass.FALU else RegClass.INT

    def source(i):
        pick = draw(st.integers(min_value=0, max_value=9))
        if pick == 0:
            return draw(st.integers(min_value=i, max_value=n - 1))
        if pick == 1 and n_invariants:
            return n + draw(st.integers(min_value=0,
                                        max_value=n_invariants - 1))
        if i == 0:
            return i
        return draw(st.integers(min_value=0, max_value=i - 1))

    ops = []
    for i, kind in enumerate(kinds):
        if kind is OpClass.LOAD:
            n_srcs = draw(st.integers(min_value=0, max_value=1))
        elif kind is OpClass.STORE:
            n_srcs = draw(st.integers(min_value=1, max_value=2))
        else:
            n_srcs = draw(st.integers(min_value=0, max_value=3))
        srcs = tuple(source(i) for _ in range(n_srcs))
        if kind in (OpClass.LOAD, OpClass.STORE):
            stream = draw(st.integers(min_value=0, max_value=num_streams - 1))
            dst = i if kind is OpClass.LOAD else None
            ops.append(VOp(kind, dst=dst, srcs=srcs, stream=stream))
        else:
            ops.append(VOp(kind, dst=i, srcs=srcs))
    return Kernel(name="random", ops=ops, vreg_classes=classes,
                  num_streams=num_streams)


@settings(max_examples=80, deadline=None)
@given(kernel=random_dag_kernels(), latency=st.sampled_from([1, 3, 10, 20]),
       reserve=st.sampled_from([0, 8, 12]))
def test_random_dags_schedule_topologically(kernel, latency, reserve):
    schedule = list_schedule(kernel, latency, reserve_registers=reserve)
    assert_schedule_legal(kernel, schedule)
    assert all(a < b for a, b in zip(schedule.cycles, schedule.cycles[1:]))
    cycle = dict(zip(schedule.order, schedule.cycles))
    defs = kernel.defs()
    first_use = {}
    for use_idx, op in enumerate(kernel.ops):
        for src in op.srcs:
            def_idx = defs.get(src)
            if def_idx is None or def_idx >= use_idx:
                continue
            # A true edge: the use waits out the producer's latency.
            producer = kernel.ops[def_idx]
            lat = latency if producer.op is OpClass.LOAD else 1
            assert cycle[use_idx] - cycle[def_idx] >= lat
            first_use.setdefault(def_idx, use_idx)
    for i, op in enumerate(kernel.ops):
        if op.op is OpClass.LOAD:
            release = first_use.get(i, i) - (latency + HOIST_SLACK)
            assert cycle[i] >= release
