"""Tests for the ``python -m repro`` command line."""

import pytest

from repro.cli import build_config, main, parse_policy
from repro.core.policies import MSHRPolicy
from repro.errors import ConfigurationError


class TestParsePolicy:
    @pytest.mark.parametrize("text,name", [
        ("mc=0", "mc=0"),
        ("mc=0+wma", "mc=0+wma"),
        ("mc=1", "mc=1"),
        ("MC=2", "mc=2"),
        ("fc=2", "fc=2"),
        ("fs=1", "fs=1"),
        ("no restrict", "no restrict"),
        ("none", "no restrict"),
        ("in-cache", "in-cache(+1)"),
        ("inverted(8)", "inverted(8)"),
        ("layout 2x2", "layout 2x2"),
        ("layout 1xinf", "layout 1xinf"),
    ])
    def test_labels(self, text, name):
        policy = parse_policy(text)
        assert isinstance(policy, MSHRPolicy)
        assert policy.name == name

    def test_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            parse_policy("turbo mode")

    def test_rejects_fc_zero(self):
        with pytest.raises(ConfigurationError):
            parse_policy("fc=0")


class TestBuildConfig:
    def _args(self, **overrides):
        import argparse

        defaults = dict(cache_kb=8, line=32, assoc=1, penalty=16,
                        issue=1, latency=10, scale=1.0)
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_defaults_are_the_baseline(self):
        config = build_config(self._args(), parse_policy("mc=1"))
        assert config.geometry.size == 8 * 1024
        assert config.effective_penalty == 16

    def test_fully_associative_via_zero(self):
        config = build_config(self._args(assoc=0), parse_policy("mc=1"))
        assert config.geometry.num_sets == 1


class TestCommands:
    def test_simulate_default_spectrum(self, capsys):
        assert main(["simulate", "eqntott", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "no restrict" in out
        assert "MCPI" in out

    def test_simulate_explicit_policies(self, capsys):
        assert main(["simulate", "ora", "--scale", "0.05",
                     "--policy", "mc=0", "--policy", "fc=1"]) == 0
        out = capsys.readouterr().out
        assert "fc=1" in out

    def test_simulate_dual_issue(self, capsys):
        assert main(["simulate", "eqntott", "--scale", "0.05",
                     "--issue", "2", "--policy", "mc=1"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out

    def test_simulate_warmup_prints_the_reference_mcpi(self, capsys):
        from repro.sim.config import baseline_config
        from repro.sim.simulator import simulate_reference
        from repro.workloads.spec92 import get_benchmark

        assert main(["simulate", "xlisp", "--scale", "0.05",
                     "--warmup", "0.25", "--policy", "mc=1"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        reference = simulate_reference(
            get_benchmark("xlisp"), baseline_config(parse_policy("mc=1")),
            load_latency=10, scale=0.05, warmup=0.25)
        assert row[:2] == ["mc=1", f"{reference.mcpi:.3f}"]

    def test_simulate_warmup_rejected_at_dual_issue(self, capsys):
        assert main(["simulate", "xlisp", "--scale", "0.05", "--issue", "2",
                     "--warmup", "0.2", "--policy", "mc=1"]) == 2
        assert ("warmup discard is implemented for the single-issue model"
                in capsys.readouterr().err)

    def test_simulate_unknown_benchmark(self, capsys):
        assert main(["simulate", "gcc"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_simulate_bad_policy(self, capsys):
        assert main(["simulate", "ora", "--policy", "warp"]) == 2
        assert "unrecognized policy" in capsys.readouterr().err

    def test_audit(self, capsys):
        assert main(["audit", "xlisp"]) == 0
        out = capsys.readouterr().out
        assert "loads/instr" in out

    def test_trace(self, capsys):
        assert main(["trace", "tomcatv", "--count", "5",
                     "--policy", "mc=1"]) == 0
        out = capsys.readouterr().out
        assert out.count("#") >= 5

    def test_benchmarks_listing(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 18
        assert "tomcatv" in out


class TestEnginesCommand:
    def test_reports_where_each_lane_runs(self, capsys):
        from repro.cpu import ckernel

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "kernel cache:" in out
        for lane in ("closed_form", "replay", "dual", "interp"):
            assert lane in out
        if ckernel.kernels_available():
            assert "C kernel" in out

    def test_without_compiler_names_the_fallbacks(self, no_compiler,
                                                  capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "C compiler: none found" in out
        assert "scalar replay" in out
        assert "reference dual-issue loop" in out
        assert "C kernel" not in out


class TestReport:
    def test_report_renders_full_dossier(self, capsys):
        assert main(["report", "ora", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "===" in out
        assert "MCPI vs scheduled load latency" in out
        assert "Stall decomposition" in out
        assert "In-flight occupancy" in out

    def test_report_unknown_benchmark(self, capsys):
        assert main(["report", "nope"]) == 2


class TestSweepCommand:
    def test_sweep_prints_table_and_plan(self, capsys):
        assert main(["sweep", "ora", "--scale", "0.05",
                     "--policy", "mc=1", "--policy", "no restrict",
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "benchmarks x policies" in out
        assert "plan:" in out
        assert "simulated" in out

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_sweep_rejects_nonpositive_workers(self, workers, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "ora", "--scale", "0.05", "--policy", "mc=1",
                  "--workers", workers])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_screen_rejects_nonpositive_workers(self, workers, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["screen", "ora", "--scale", "0.05", "--policy", "mc=1",
                  "--workers", workers])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_screen_rejects_non_integer_workers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["screen", "ora", "--scale", "0.05", "--policy", "mc=1",
                  "--workers", "two"])
        assert exc.value.code == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["backends", "worker", "serve"])
    def test_removed_subcommands_are_unknown(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "screen"])
    def test_backend_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "ora", "--scale", "0.05", "--policy", "mc=1",
                  "--backend", "inline"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_sweep_workers_reach_the_pool(self, monkeypatch, capsys):
        from repro.sim.parallel import pool_stats, shutdown_pool

        monkeypatch.setenv("REPRO_CACHE", "0")  # simulate on both runs
        command = ["sweep", "ora", "eqntott", "--scale", "0.05",
                   "--policy", "mc=1", "--policy", "no restrict",
                   "--workers"]
        assert main(command + ["1"]) == 0
        serial = capsys.readouterr().out
        stats = pool_stats()
        try:
            assert main(command + ["2"]) == 0
            pooled = capsys.readouterr().out
            after = pool_stats()
        finally:
            shutdown_pool()
        assert after["created"] + after["reused"] > \
            stats["created"] + stats["reused"]
        assert pooled == serial
        assert "4 simulated" in pooled


class TestCacheCommand:
    def test_stats_empty_store(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "result store at" in out
        assert "0 entries" in out

    def test_stats_json_after_sweep(self, capsys):
        import json

        assert main(["sweep", "ora", "--scale", "0.05",
                     "--policy", "mc=1", "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["misses"] == 1
        assert payload["stores"] == 1

    def test_repeated_sweep_is_pure_cache_read(self, capsys):
        import json

        argv = ["sweep", "ora", "--scale", "0.05",
                "--policy", "mc=1", "--workers", "1"]
        assert main(argv) == 0
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 cached, 0 simulated" in out
        assert main(["cache", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hits"] == 1
        assert payload["misses"] == 1

    def test_clear(self, capsys):
        assert main(["sweep", "ora", "--scale", "0.05",
                     "--policy", "mc=1", "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        assert "cleared 1 cached results" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_gc(self, capsys):
        assert main(["sweep", "ora", "--scale", "0.05",
                     "--policy", "mc=1", "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--max-mb", "0"]) == 0
        assert "garbage-collected 1" in capsys.readouterr().out

    def test_gc_max_mb_shrinks_the_file(self, capsys):
        from repro.sim.resultstore import ResultStore

        assert main(["sweep", "ora", "eqntott", "tomcatv", "--scale", "0.05",
                     "--policy", "mc=1", "--policy", "fc=2",
                     "--policy", "no restrict", "--workers", "1"]) == 0
        capsys.readouterr()
        store = ResultStore.from_env()

        def footprint():
            wal = store.path.with_name(store.path.name + "-wal")
            return store.path.stat().st_size + (wal.stat().st_size
                                                if wal.exists() else 0)

        before = footprint()
        budget = store.stats().total_bytes // 2
        assert main(["cache", "gc", "--max-mb",
                     str(budget / (1024 * 1024))]) == 0
        assert "garbage-collected 0 cached" not in capsys.readouterr().out
        assert 0 < store.stats().total_bytes <= budget
        middle = footprint()
        assert main(["cache", "gc", "--max-mb", "0"]) == 0
        after = footprint()
        assert before > middle > after
