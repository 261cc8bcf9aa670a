"""The analytical bound primitives behind the screening tier.

Soundness is the whole contract: every ``cell_bounds`` interval must
contain the reference engine's exact end cycle, the closed-form
families must be bit-exact, and the fallback causes must fire exactly
where the model says the summary cannot be bounded.  The property
test drives randomized small workloads across policy families,
geometries, and scheduled latencies against the unoptimized reference
loops, which share no code with the stream pass or the bound math.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.compiler.ir import KernelBuilder
from repro.core.policies import (
    blocking_cache,
    fc,
    fs,
    in_cache,
    inverted,
    mc,
    no_restrict,
    with_layout,
)
from repro.sim import bounds
from repro.sim.bounds import (
    cell_bounds,
    bounds_cache_sizes,
    dependency_floor,
    screen_support,
)
from repro.sim.stream import event_stream
from repro.sim.config import MachineConfig, baseline_config
from repro.sim.simulator import clear_caches, simulate, simulate_reference
from repro.workloads.patterns import Strided
from repro.workloads.spec92 import get_benchmark
from repro.workloads.workload import Workload

POLICIES = [
    blocking_cache(),
    blocking_cache(write_allocate=True),
    mc(1),
    mc(4),
    fc(2),
    fs(1),
    no_restrict(),
    inverted(8),
    in_cache(1),
    with_layout(2, 2),
    with_layout(4, 1),
]

GEOMETRIES = [
    CacheGeometry(size=1024, line_size=32, associativity=1),
    CacheGeometry(size=4096, line_size=32, associativity=2),
    CacheGeometry(size=2048, line_size=16, associativity=1),
]


@st.composite
def random_workloads(draw):
    n_loads = draw(st.integers(min_value=1, max_value=3))
    n_stores = draw(st.integers(min_value=0, max_value=2))
    builder = KernelBuilder("boundsprop")
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
        name="boundsprop",
        kernel=builder.build(),
        patterns=patterns,
        iterations=draw(st.integers(min_value=30, max_value=200)),
        max_unroll=draw(st.sampled_from([1, 2, 4])),
        seed=draw(st.integers(min_value=1, max_value=2**16)),
    )


@settings(max_examples=40, deadline=None)
@given(
    workload=random_workloads(),
    policy=st.sampled_from(POLICIES),
    geometry=st.sampled_from(GEOMETRIES),
    latency=st.sampled_from([1, 3, 10, 20]),
)
def test_bounds_contain_reference_cycles(workload, policy, geometry,
                                         latency):
    config = MachineConfig(geometry=geometry, policy=policy,
                           miss_penalty=16, issue_width=1)
    b = cell_bounds(workload, config, latency, 1.0)
    assert b is not None, "single-issue ideal-WB cells must be boundable"
    ref = simulate_reference(workload, config, load_latency=latency,
                             scale=1.0)
    assert b.instructions == ref.instructions
    assert b.lower_cycles <= ref.cycles <= b.upper_cycles
    if b.exact:
        assert ref.cycles == b.upper_cycles
    assert b.mcpi_low <= ref.mcpi <= b.mcpi_high


class TestClosedForms:
    @pytest.mark.parametrize("policy", [blocking_cache(),
                                        blocking_cache(write_allocate=True)])
    @pytest.mark.parametrize("name", ["eqntott", "compress", "tomcatv"])
    def test_blocking_family_is_bit_exact(self, name, policy):
        workload = get_benchmark(name)
        config = baseline_config().with_policy(policy)
        b = cell_bounds(workload, config, 10, 0.05)
        exact = simulate(workload, config, load_latency=10, scale=0.05)
        assert b.exact
        assert b.method == "blocking"
        assert b.lower_cycles == b.upper_cycles == exact.cycles
        assert b.mcpi_high == exact.mcpi

    def test_perfect_cache_collapses_to_instructions(self):
        workload = get_benchmark("eqntott")
        config = replace(baseline_config(), perfect_cache=True)
        b = cell_bounds(workload, config, 10, 0.05)
        exact = simulate(workload, config, load_latency=10, scale=0.05)
        assert b.exact
        assert b.upper_cycles == exact.cycles == b.instructions

    def test_nonblocking_interval_brackets_blocking_value(self):
        # The non-blocking upper is the blocking closed form over the
        # same summary: strictly the paper's monotonicity claim.
        workload = get_benchmark("compress")
        config = baseline_config().with_policy(mc(1))
        blocking = cell_bounds(
            workload, baseline_config().with_policy(blocking_cache()),
            10, 0.05)
        b = cell_bounds(workload, config, 10, 0.05)
        assert not b.exact
        assert b.method == "interval"
        assert b.upper_cycles == blocking.upper_cycles
        assert b.lower_cycles >= b.instructions


class TestFallbackCauses:
    def test_dual_issue_is_unboundable(self):
        config = replace(baseline_config(), issue_width=2)
        assert screen_support(config) == "dual_issue"
        assert cell_bounds(get_benchmark("eqntott"), config, 10, 0.05) is None

    def test_fill_ports_is_unboundable(self):
        policy = replace(no_restrict(), fill_ports=1)
        config = baseline_config().with_policy(policy)
        assert screen_support(config) == "fill_ports"

    def test_write_allocate_nonblocking_is_unboundable(self):
        policy = replace(mc(2), write_allocate_blocking=True)
        config = baseline_config().with_policy(policy)
        assert screen_support(config) == "wma_nonblocking"

    def test_supported_cells_have_no_cause(self):
        for policy in POLICIES:
            config = baseline_config().with_policy(policy)
            assert screen_support(config) is None


class TestFiniteWriteBuffer:
    @pytest.mark.parametrize("policy", [mc(1), blocking_cache()])
    def test_bracket_widens_but_stays_sound(self, policy):
        workload = get_benchmark("compress")
        config = replace(baseline_config().with_policy(policy),
                         write_buffer_depth=1,
                         write_buffer_retire_cycles=3)
        b = cell_bounds(workload, config, 10, 0.05)
        exact = simulate(workload, config, load_latency=10, scale=0.05)
        assert b.method == "interval"
        assert not b.exact
        assert b.lower_cycles <= exact.cycles <= b.upper_cycles


class TestFloorsAndCaches:
    def test_lower_bound_never_below_instructions(self):
        workload = get_benchmark("eqntott")
        config = baseline_config().with_policy(no_restrict())
        b = cell_bounds(workload, config, 10, 0.05)
        assert b.lower_cycles >= b.instructions

    def test_dependency_floor_is_cached_per_stream(self):
        clear_caches()
        workload = get_benchmark("eqntott")
        stream = event_stream(workload, 10, 0.05, 32)
        floor_a = dependency_floor(workload, 10, 0.05, stream, 16)
        sizes = bounds_cache_sizes()
        floor_b = dependency_floor(workload, 10, 0.05, stream, 16)
        assert floor_a == floor_b
        assert floor_a >= 0
        assert bounds_cache_sizes() == sizes

    def test_clear_caches_drops_bound_caches(self):
        workload = get_benchmark("eqntott")
        cell_bounds(workload, baseline_config().with_policy(mc(1)),
                    10, 0.05)
        assert sum(bounds_cache_sizes()) > 0
        clear_caches()
        assert sum(bounds_cache_sizes()) == 0

    def test_walk_cap_degrades_to_a_sound_coarse_floor(self, monkeypatch):
        workload = get_benchmark("compress")
        config = baseline_config().with_policy(mc(1))
        clear_caches()
        monkeypatch.setattr(bounds, "MAX_WALK_STEPS", 3)
        capped = cell_bounds(workload, config, 10, 0.05)
        exact = simulate(workload, config, load_latency=10, scale=0.05)
        assert capped.lower_cycles <= exact.cycles <= capped.upper_cycles
        clear_caches()