"""Property tests: the replay kernels vs the reference engine.

The equivalence suite pins the replay kernels on the SPEC-shaped
models; these tests drive them with randomized small workloads --
arbitrary load/store/ALU bodies over arbitrary strided footprints, on
a tiny cache so hit runs, conflict misses, and store-heavy quiescent
spans all occur -- and assert bit-identity against the unoptimized
reference loops, which share no code with the stream pass, the replay
kernels, or the generated C.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.compiler.ir import KernelBuilder
from repro.core.policies import fc, mc, no_restrict
from repro.cpu import ckernel
from repro.sim.config import baseline_config
from repro.sim.simulator import simulate
from repro.workloads.patterns import Strided
from repro.workloads.workload import Workload

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


@pytest.mark.skipif(not ckernel.kernels_available(),
                    reason="no C compiler available")
@settings(max_examples=25, deadline=None)
@given(
    workload=random_workloads(),
    policy=st.sampled_from([mc(1), fc(2), no_restrict()]),
    latency=st.sampled_from([3, 10]),
    associativity=st.sampled_from([1, 2]),
)
def test_cnative_lane_matches_reference(workload, policy, latency,
                                        associativity):
    # The C kernels also own the LRU stack, so the random matrix draws
    # associativity too: 2-way on a 1 KB cache keeps sets churning.
    geometry = replace(GEOMETRY, associativity=associativity)
    config = replace(baseline_config(policy), geometry=geometry)
    cnative = simulate(workload, config, load_latency=latency,
                       engine="cnative")
    reference = simulate(workload, config, load_latency=latency,
                         engine="reference")
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
    scalar = simulate(workload, config, load_latency=latency,
                      engine="fused")
    reference = simulate(workload, config, load_latency=latency,
                         engine="reference")
    assert scalar == reference
