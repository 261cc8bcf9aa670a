"""A warm pass of the experiment registry is a pure store read.

Every driver plans its cells and Figure 4 reads its compile facts from
the store, so once a cold pass has filled the store a second pass
neither simulates nor compiles, and writes only each plan's counter
update.
"""

import pytest

import repro.sim.planner as planner
from repro.experiments import all_experiments, get_experiment
from repro.sim import simulator
from repro.sim.resultstore import ResultStore
from tests.helpers import count_calls


def _refuse(*args, **kwargs):
    raise AssertionError("a warm pass must neither simulate nor compile")


def test_warm_registry_pass_neither_simulates_nor_compiles(monkeypatch):
    cold = {exp.experiment_id: exp.run(scale=0.05).rows
            for exp in all_experiments()}
    simulator.clear_caches()
    monkeypatch.setattr(simulator, "simulate", _refuse)
    monkeypatch.setattr(simulator, "compile_kernel", _refuse)
    plans = count_calls(monkeypatch, planner, "run_plan")
    transactions = count_calls(monkeypatch, ResultStore, "_begin")
    for exp in all_experiments():
        del plans[:], transactions[:]
        assert exp.run(scale=0.05).rows == cold[exp.experiment_id]
        # One write transaction per plan: its counter update.
        assert len(transactions) == len(plans), exp.experiment_id
        if exp.experiment_id == "fig4":
            assert plans == []


def test_fig4_without_store_compiles_and_matches(monkeypatch):
    fig4 = get_experiment("fig4")
    stored = fig4.run(scale=0.05).rows
    store = ResultStore.from_env()
    assert store.stats().entries == 30
    simulator.clear_caches()
    monkeypatch.setenv("REPRO_CACHE", "0")
    compiles = count_calls(monkeypatch, simulator, "compile_kernel")
    assert fig4.run(scale=0.05).rows == stored
    assert len(compiles) == 30
    assert store.stats().entries == 30


@pytest.mark.parametrize("experiment_id", ["fig6", "fig19", "schedule"])
def test_driver_runs_as_plans(experiment_id, monkeypatch):
    """Drivers plan their cells instead of simulating one at a time."""
    plans = count_calls(monkeypatch, planner, "run_plan")
    get_experiment(experiment_id).run(scale=0.02)
    # fig19's single-issue cells depend on the IPC its first plan measured.
    assert len(plans) == (2 if experiment_id == "fig19" else 1)
