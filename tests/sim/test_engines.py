"""Per-cell routing: the lane each cell runs on, and the removed knobs.

:func:`repro.sim.engines.cell_lane` is the one routing predicate;
these tests check that it names the lane ``simulate`` really takes --
as the lane counters show -- with and without a C compiler.
"""

from __future__ import annotations

import inspect
from dataclasses import replace

import pytest

from repro import telemetry
from repro.core.policies import blocking_cache, mc, no_restrict
from repro.cpu import ckernel
from repro.errors import ExperimentError
from repro.sim import engines
from repro.sim.config import baseline_config
from repro.sim.simulator import simulate
from repro.workloads.spec92 import get_benchmark
from tests.helpers import compiler_hidden

#: Counters naming the lane a cell ran on and why it left the C kernel.
LANE_COUNTERS = ("fusion.closed_form", "fusion.replays",
                 "engine.cnative.replays", "engine.cnative.dual_issue",
                 "fusion.bypasses", "engine.cnative.fallback.nocc",
                 "engine.cnative.fallback.policy")

#: Counters that moved -> the lane they show.
OBSERVED_LANE = {
    ("fusion.closed_form",): "closed_form",
    ("engine.cnative.replays", "fusion.replays"): "replay",
    ("engine.cnative.fallback.nocc", "fusion.replays"): "replay",
    ("engine.cnative.dual_issue",): "dual",
    ("engine.cnative.fallback.nocc", "fusion.bypasses"): "dual",
    ("fusion.bypasses",): "interp",
    ("engine.cnative.fallback.policy", "fusion.bypasses"): "interp",
}

#: Counters that move only when the cell ran in the C kernel.
C_COUNTERS = {"engine.cnative.replays", "engine.cnative.dual_issue"}

#: (label, machine, warmup fraction).
ROUTING_CASES = [
    ("blocking", baseline_config(blocking_cache()), 0.0),
    ("replay", baseline_config(mc(1)), 0.0),
    ("blocking-dual", replace(baseline_config(blocking_cache()),
                              issue_width=2), 0.0),
    ("blocking-perfect", replace(baseline_config(blocking_cache()),
                                 perfect_cache=True), 0.0),
    ("blocking-wb4", replace(baseline_config(blocking_cache()),
                             write_buffer_depth=4), 0.0),
    ("mc1-dual", replace(baseline_config(mc(1)), issue_width=2), 0.0),
    ("mc1-wb4", replace(baseline_config(mc(1)), write_buffer_depth=4), 0.0),
    ("mc1-warmup", baseline_config(mc(1)), 0.25),
    ("perfect-dual", replace(baseline_config(), issue_width=2,
                             perfect_cache=True), 0.0),
    ("mc1-dual-wb4", replace(baseline_config(mc(1)), issue_width=2,
                             write_buffer_depth=4), 0.0),
]
ROUTING_IDS = [label for label, _, _ in ROUTING_CASES]


def _moved_counters(config, warmup):
    """Simulate one cell; return the lane counters it moved."""
    try:
        telemetry.set_enabled(True)
        before = {n: telemetry.counter(n).value for n in LANE_COUNTERS}
        simulate(get_benchmark("xlisp"), config, load_latency=10,
                 scale=0.05, warmup=warmup)
        return tuple(sorted(n for n in LANE_COUNTERS
                            if telemetry.counter(n).value > before[n]))
    finally:
        telemetry.set_enabled(None)


class TestLaneMatchesRouting:
    """``cell_lane`` names the lane ``simulate`` really takes."""

    @pytest.mark.skipif(not ckernel.kernels_available(),
                        reason="no C compiler available")
    @pytest.mark.parametrize("label,config,warmup", ROUTING_CASES,
                             ids=ROUTING_IDS)
    def test_with_compiler(self, label, config, warmup):
        moved = _moved_counters(config, warmup)
        lane = engines.cell_lane(config, warmup)
        assert OBSERVED_LANE[moved] == lane
        assert bool(C_COUNTERS.intersection(moved)) == \
            (lane in engines.C_LANES)

    @pytest.mark.parametrize("label,config,warmup", ROUTING_CASES,
                             ids=ROUTING_IDS)
    def test_without_compiler(self, label, config, warmup):
        with compiler_hidden():
            moved = _moved_counters(config, warmup)
        assert OBSERVED_LANE[moved] == engines.cell_lane(config, warmup)
        assert not C_COUNTERS.intersection(moved)

    def test_no_compiler_never_binds_c_kernels(self, no_compiler):
        from repro.sim import stream as stream_mod

        workload = get_benchmark("eqntott")
        simulate(workload, baseline_config(no_restrict()), load_latency=10,
                 scale=0.1)
        stream = stream_mod.event_stream(workload, 10, 0.1, 32)
        assert stream._replay_fns
        assert all(key[0] != "cnative" for key in stream._replay_fns)


class TestRemovedSelectors:
    """No caller picks an execution path; the old knobs are rejected."""

    def test_experiment_options_reject_engine(self):
        from repro.experiments.base import ExperimentOptions

        with pytest.raises(ExperimentError,
                           match="unknown experiment option 'engine'"):
            ExperimentOptions.from_kwargs(engine="fused")

    def test_api_has_no_engine_selector(self):
        from repro import api

        assert not [name for name in api.__all__ if "engine" in name]
        assert "engine" not in inspect.signature(api.simulate).parameters
