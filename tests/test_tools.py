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
    tool = load_tool("perfbench")
    target = tmp_path / "BENCH_engine.json"
    cache_target = tmp_path / "BENCH_sweepcache.json"
    monkeypatch.setattr(sys, "argv", [
        "perfbench.py", "--smoke", "--out", str(target),
        "--sweepcache-out", str(cache_target),
    ])
    tool.main()
    out = capsys.readouterr().out
    assert "serial engine throughput" in out
    assert "parallel sweep" in out
    assert "memoized sweep" in out

    import json

    payload = json.loads(target.read_text())
    assert payload["smoke"] is True
    names = [row["workload"] for row in payload["serial"]]
    assert "hitloop" in names
    for row in payload["serial"]:
        assert row["fast_ips"] > 0 and row["ref_ips"] > 0
    assert payload["sweep"]["cells"] > 0
    assert payload["sweep"]["grouped_fast_seconds"] > 0

    cache_payload = json.loads(cache_target.read_text())
    sweepcache = cache_payload["sweepcache"]
    assert sweepcache["speedup"] > 0
    assert sweepcache["warm_simulations"] == 0
    assert sweepcache["bit_identical"] is True
    assert sweepcache["unique_cells"] <= sweepcache["cells"]
