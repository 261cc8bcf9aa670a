"""The execution-engine registry: resolution, fallback, counters.

The registry (:mod:`repro.sim.engines`) is the single selection path
for the four execution tiers; these tests pin the resolution order
(argument > ``REPRO_ENGINE`` > default), the per-cell capability
classification the dispatcher sorts by, and the engine selection
counters.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import telemetry
from repro.cache.geometry import CacheGeometry
from repro.core.policies import blocking_cache, mc, no_restrict
from repro.errors import ConfigurationError, ExperimentError
from repro.sim import engines
from repro.sim.config import baseline_config
from repro.sim.simulator import clear_caches, fusion_default, simulate
from repro.workloads.spec92 import get_benchmark


@pytest.fixture(autouse=True)
def clean_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


class TestRegistry:
    def test_order_and_capabilities_are_monotone(self):
        # Each tier strictly adds a capability over the previous one.
        caps = [
            (e.fast_path, e.fusion, e.cnative)
            for e in (engines.ENGINES[name] for name in engines.ENGINE_ORDER)
        ]
        assert caps == sorted(caps)
        assert caps[0] == (False, False, False)
        assert caps[-1] == (True, True, True)

    def test_registry_lists_four_tiers(self):
        assert engines.ENGINE_ORDER == (
            "reference", "fastpath", "fused", "cnative")
        assert engines.DEFAULT_ENGINE is engines.CNATIVE

    def test_get_engine_resolves_names_and_auto(self):
        assert engines.get_engine("fused") is engines.FUSED
        assert engines.get_engine("  CNative ") is engines.CNATIVE
        assert engines.get_engine("auto") is engines.DEFAULT_ENGINE

    def test_unknown_engine_raises_with_vocabulary(self):
        with pytest.raises(ConfigurationError, match="valid engines"):
            engines.get_engine("turbo")

    def test_retired_native_tier_is_unknown(self, monkeypatch):
        # The numpy lane is gone with no alias: the name is rejected
        # like any other unknown engine, by argument and by env.
        with pytest.raises(ConfigurationError, match="unknown engine"):
            engines.get_engine("native")
        monkeypatch.setenv("REPRO_ENGINE", "native")
        with pytest.raises(ConfigurationError, match="unknown engine"):
            engines.resolve_engine()

    def test_engine_names_covers_registry_plus_auto(self):
        assert engines.engine_names() == engines.ENGINE_ORDER + ("auto",)


class TestResolution:
    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert engines.resolve_engine("cnative") is engines.CNATIVE

    def test_default_is_the_fastest_tier(self):
        assert engines.resolve_engine() is engines.DEFAULT_ENGINE

    def test_simulator_defaults_follow_the_registry(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fastpath")
        assert not fusion_default()
        monkeypatch.setenv("REPRO_ENGINE", "fused")
        assert fusion_default()


class TestCellCapability:
    def test_direct_mapped_nonblocking_lands_on_cnative(self):
        # Direct-mapped cells run in the C tier too, like every other
        # replayable cell; without a compiler they stay fused.
        from repro.cpu import ckernel

        config = baseline_config(mc(1))
        expected = "cnative" if ckernel.kernels_available() else "fused"
        assert engines.cell_engine_tier(config) == \
            engines.ENGINE_ORDER.index(expected)

    def test_associative_cell_lands_on_cnative(self, monkeypatch):
        # Inside the replay contract: the C tier takes it when a
        # compiler exists.
        from repro.cpu import ckernel

        config = replace(
            baseline_config(mc(1)),
            geometry=CacheGeometry(size=8192, line_size=32, associativity=4),
        )
        if ckernel.kernels_available():
            assert engines.cell_engine_tier(config) == \
                engines.ENGINE_ORDER.index("cnative")

    def test_associative_cell_caps_at_fused_without_compiler(
            self, monkeypatch):
        from repro.cpu import ckernel

        monkeypatch.setenv("REPRO_CC", "no-such-compiler-xyz")
        ckernel.reset_probe()
        config = replace(
            baseline_config(mc(1)),
            geometry=CacheGeometry(size=8192, line_size=32, associativity=4),
        )
        try:
            assert engines.cell_engine_tier(config) == \
                engines.ENGINE_ORDER.index("fused")
        finally:
            ckernel.reset_probe()

    def test_blocking_cell_caps_at_fused(self):
        # Blocking policies collapse to the closed form, a fused-tier
        # capability; the C kernels add nothing there.
        config = baseline_config(blocking_cache())
        assert engines.cell_engine_tier(config) == \
            engines.ENGINE_ORDER.index("fused")

    def test_finite_write_buffer_caps_at_fastpath(self):
        config = replace(baseline_config(mc(1)), write_buffer_depth=4)
        assert engines.cell_engine_tier(config) == \
            engines.ENGINE_ORDER.index("fastpath")


class TestEngineTelemetry:
    def _counter(self, name):
        return telemetry.counter(name).value

    def test_selection_counters(self):
        workload = get_benchmark("ora")
        config = baseline_config(mc(1))
        try:
            telemetry.set_enabled(True)
            before = self._counter("engine.selected.fused")
            simulate(workload, config, load_latency=10, scale=0.05,
                     engine="fused")
            assert self._counter("engine.selected.fused") == before + 1
        finally:
            telemetry.set_enabled(None)


class TestPinning:
    def test_pinning_fused_never_binds_c_kernels(self):
        from repro.sim import stream as stream_mod

        workload = get_benchmark("eqntott")
        config = baseline_config(no_restrict())
        clear_caches()
        simulate(workload, config, load_latency=10, scale=0.1,
                 engine="fused")
        stream = stream_mod.event_stream(workload, 10, 0.1, 32)
        assert all(key[0] != "cnative" for key in stream._replay_fns)
        clear_caches()

    def test_pinning_reference_matches_cnative(self):
        workload = get_benchmark("compress")
        config = baseline_config(no_restrict())
        ref = simulate(workload, config, load_latency=10, scale=0.05,
                       engine="reference")
        c = simulate(workload, config, load_latency=10, scale=0.05,
                     engine="cnative")
        assert ref == c

    def test_experiment_options_validate_engine(self):
        from repro.experiments.base import ExperimentOptions

        options = ExperimentOptions.from_kwargs(engine="fused")
        assert options.engine == "fused"
        with pytest.raises(ExperimentError, match="valid engines"):
            ExperimentOptions.from_kwargs(engine="warp")

    def test_api_simulate_accepts_engine(self):
        from repro import api

        c = api.simulate("ora", policy="mc=1", scale=0.05, cached=False,
                         engine="cnative")
        ref = api.simulate("ora", policy="mc=1", scale=0.05, cached=False,
                           engine="reference")
        assert c == ref
        assert "cnative" in api.engine_names()
        assert "native" not in api.engine_names()
