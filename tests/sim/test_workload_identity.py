"""Two workloads that differ only in their addresses never share work.

A copy of tomcatv with other address patterns keeps the name, the
kernel and every compile hint, so it shares tomcatv's compiled body but
must never be handed tomcatv's trace, event stream or functional
summary.  Each test warms the caches with tomcatv first, then checks
the copy against the reference loops on one execution path: serial
``simulate``, a planned run through the result store, and the
persistent pool.
"""

import pytest

from repro.core.policies import baseline_policies, mc
from repro.sim.config import baseline_config
from repro.sim.parallel import dispatch, shutdown_pool
from repro.sim.planner import execute_cells
from repro.sim.resultstore import ResultStore, cell_fingerprint
from repro.sim.simulator import clear_caches, simulate, simulate_reference
from repro.workloads.spec92 import get_benchmark
from tests.helpers import readdressed

LATENCY, SCALE = 10, 0.05


def _cells(workload):
    return [(workload, baseline_config(policy), LATENCY, SCALE)
            for policy in baseline_policies()]


@pytest.fixture(scope="module")
def pair():
    """tomcatv, its readdressed copy and the copy's reference results."""
    original = get_benchmark("tomcatv")
    copy = readdressed(original)
    clear_caches()
    expected = [simulate_reference(w, c, load_latency=lat, scale=s)
                for w, c, lat, s in _cells(copy)]
    clear_caches()
    originals = [simulate_reference(w, c, load_latency=lat, scale=s)
                 for w, c, lat, s in _cells(original)]
    clear_caches()
    # Every cell tells the two apart, so an aliased trace shows.
    assert all(a.cycles != b.cycles for a, b in zip(expected, originals))
    return original, copy, expected


def test_serial_simulate(pair):
    original, copy, expected = pair
    for w, c, lat, s in _cells(original):
        simulate(w, c, load_latency=lat, scale=s)
    assert [simulate(w, c, load_latency=lat, scale=s)
            for w, c, lat, s in _cells(copy)] == expected


def test_planned_cells_and_stored_rows(pair, tmp_path):
    original, copy, expected = pair
    store = ResultStore(tmp_path / "store")
    execute_cells(_cells(original), store=store)
    assert execute_cells(_cells(copy), store=store) == expected
    assert [store.load(cell_fingerprint(*cell))
            for cell in _cells(copy)] == expected


def test_persistent_pool(pair):
    original, copy, expected = pair
    # A second group makes each dispatch use the pool.
    other = (get_benchmark("ora"), baseline_config(mc(1)), LATENCY, SCALE)
    shutdown_pool()
    try:
        dispatch(_cells(original) + [other], workers=2)
        results = dispatch(_cells(copy) + [other], workers=2)
    finally:
        shutdown_pool()
    assert results[:-1] == expected
