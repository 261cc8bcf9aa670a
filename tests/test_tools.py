"""Smoke tests for the maintenance tools in tools/."""

import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


def test_compare_fig13_reports_statistics(monkeypatch, capsys):
    tool = load_tool("compare_fig13")
    monkeypatch.setattr(sys, "argv", ["compare_fig13.py", "--scale", "0.05"])
    tool.main()
    out = capsys.readouterr().out
    assert "cells compared: 108" in out
    assert "mean |log2(ours/paper)|" in out
    assert "ordering" in out


def test_generate_experiments_md_writes_file(monkeypatch, capsys, tmp_path):
    tool = load_tool("generate_experiments_md")
    target = tmp_path / "EXPERIMENTS.md"
    monkeypatch.setattr(sys, "argv", [
        "generate_experiments_md.py", "--scale", "0.02",
        "--out", str(target),
    ])
    tool.main()
    text = target.read_text()
    assert "# EXPERIMENTS" in text
    assert "## fig13:" in text
    assert "## costs:" in text
    # Every registered experiment got a section.
    from repro.experiments import all_experiments

    for exp in all_experiments():
        assert f"## {exp.experiment_id}:" in text


def test_perfbench_smoke_writes_bench_json(monkeypatch, capsys, tmp_path):
    # The default run's two gated measurements, shrunk to a wiring
    # check: CI runs the full smoke with the gates.
    tool = load_tool("perfbench")
    monkeypatch.setattr(tool, "FUSION_SMOKE_BENCHMARKS", ("eqntott", "ora"))
    monkeypatch.setattr(tool, "TELEMETRY_MIN_REPEATS", 2)
    monkeypatch.setattr(tool, "TELEMETRY_MICRO_REPS", 20)
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "fusion.json"
    monkeypatch.setattr(sys, "argv", [
        "perfbench.py", "--smoke", "--fusion-out", str(target),
    ])
    tool.main()
    out = capsys.readouterr().out
    assert "cold multi-policy sweep" in out
    assert "telemetry overhead" in out

    import json

    payload = json.loads(target.read_text())
    assert payload["smoke"] is True
    fusion = payload["fusion"]
    assert fusion["cells"] == 2 * fusion["policies"]
    assert fusion["bit_identical"] is True
    assert fusion["fused_seconds"] > 0 and fusion["unfused_seconds"] > 0
    overhead = payload["telemetry_overhead"]
    assert overhead["bit_identical"] is True
    assert overhead["cell_ms"] > 0
    # Nothing else is written: the default run has one payload.
    assert [p.name for p in tmp_path.glob("*.json")] == ["fusion.json"]
    assert not any((tmp_path / tool.SMOKE_DIR).iterdir())
