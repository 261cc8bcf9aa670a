"""Property tests: the replay kernels vs the reference engine.

The equivalence suite pins the replay kernels on the SPEC-shaped
models; these tests drive them with randomized small workloads --
arbitrary load/store/ALU bodies over arbitrary strided footprints, on
a tiny cache so hit runs, conflict misses, and store-heavy quiescent
spans all occur -- and assert bit-identity against the unoptimized
reference loops, which share no code with the stream pass, the replay
kernels, or the C kernel.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cache.geometry import CacheGeometry
from repro.compiler.ir import KernelBuilder
from repro.core.policies import (
    FieldLayout,
    MSHRPolicy,
    explicit,
    fc,
    fs,
    implicit,
    in_cache,
    inverted,
    mc,
    no_restrict,
)
from repro.cpu import ckernel
from repro.sim.config import baseline_config
from repro.sim.simulator import clear_caches, simulate, simulate_reference
from repro.workloads.patterns import Strided
from repro.workloads.workload import Workload
from tests.helpers import compiler_hidden

#: Small enough that the random footprints straddle resident and
#: streaming, so batched hit runs end (and restart) mid-trace.
GEOMETRY = CacheGeometry(size=1024, line_size=32, associativity=1)


@st.composite
def random_workloads(draw):
    n_loads = draw(st.integers(min_value=1, max_value=3))
    n_stores = draw(st.integers(min_value=0, max_value=2))
    builder = KernelBuilder("prop")
    patterns = {}

    def pattern():
        stride = draw(st.sampled_from([8, 16, 32]))
        region = draw(st.sampled_from([256, 1024, 4096, 16384]))
        base = draw(st.integers(min_value=0, max_value=512)) * 8
        return Strided(base, stride, region)

    values = []
    for _ in range(n_loads):
        stream = builder.declare_stream()
        patterns[stream] = pattern()
        values.append(builder.load(stream))
    result = values[0]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        result = builder.fop(result)
    for _ in range(n_stores):
        stream = builder.declare_stream()
        patterns[stream] = pattern()
        builder.store(stream, draw(st.sampled_from(values + [result])))
    return Workload(
        name="prop",
        kernel=builder.build(),
        patterns=patterns,
        iterations=draw(st.integers(min_value=30, max_value=300)),
        max_unroll=draw(st.sampled_from([1, 2, 4])),
        seed=draw(st.integers(min_value=1, max_value=2**16)),
    )


#: Every clause the C kernel switches on at runtime: each MSHR limit
#: alone, a per-set limit, limited field layouts (alone and under a
#: miss limit), the in-cache fill overhead, ported fills, and
#: write-miss allocate with and without a miss limit.
C_POLICIES = [
    mc(1), mc(2), fc(1), fc(2), fs(1), fs(2), no_restrict(),
    implicit(32, 8), explicit(2), in_cache(), inverted(4),
    MSHRPolicy(name="ported", fill_ports=1),
    MSHRPolicy(name="ported fc=2", max_fetches=2, fill_ports=2),
    MSHRPolicy(name="mc=2 implicit", max_misses=2,
               layout=FieldLayout(4, 1)),
    MSHRPolicy(name="wma", write_allocate_blocking=True),
    MSHRPolicy(name="wma mc=1", write_allocate_blocking=True,
               max_misses=1),
]


@pytest.mark.skipif(not ckernel.kernels_available(),
                    reason="no C compiler available")
@settings(max_examples=150, deadline=None)
@given(
    workload=random_workloads(),
    policy=st.sampled_from(C_POLICIES),
    latency=st.sampled_from([3, 10]),
    associativity=st.sampled_from([1, 2, 4, 0]),
)
def test_cnative_lane_matches_reference(workload, policy, latency,
                                        associativity):
    # The C kernel also owns the LRU stack, so the random matrix draws
    # associativity too (0 = fully associative): 2-way on a 1 KB cache
    # keeps sets churning.  The cell must really run in C.
    geometry = replace(GEOMETRY, associativity=associativity)
    config = replace(baseline_config(policy), geometry=geometry)
    try:
        telemetry.set_enabled(True)
        clear_caches()
        replays = telemetry.counter("engine.cnative.replays").value
        cnative = simulate(workload, config, load_latency=latency)
        ran_in_c = telemetry.counter("engine.cnative.replays").value
    finally:
        telemetry.set_enabled(None)
    reference = simulate_reference(workload, config, load_latency=latency)
    assert ran_in_c == replays + 1
    assert cnative == reference


@settings(max_examples=25, deadline=None)
@given(
    workload=random_workloads(),
    policy=st.sampled_from([mc(1), fc(2), no_restrict()]),
    latency=st.sampled_from([3, 10]),
    associativity=st.sampled_from([1, 2]),
)
def test_scalar_replay_matches_reference(workload, policy, latency,
                                         associativity):
    # The scalar replay is what every replayable cell degrades to
    # without a C compiler, so it gets the same random matrix, and
    # needs no compiler to run it.
    geometry = replace(GEOMETRY, associativity=associativity)
    config = replace(baseline_config(policy), geometry=geometry)
    with compiler_hidden():
        scalar = simulate(workload, config, load_latency=latency)
    reference = simulate_reference(workload, config, load_latency=latency)
    assert scalar == reference
