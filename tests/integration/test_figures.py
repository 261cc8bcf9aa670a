"""Every paper artifact, regenerated and checked against its claim.

One test per figure or table of the experiment registry (plus the
extension experiments and the ablations of DESIGN.md section 5), each
running the artifact at scale 0.5 -- fig16 at 1.0 -- and asserting the
claim the paper draws from it.  ``perfbench/`` times the same
artifacts; these tests only check them.
"""

from dataclasses import replace

import pytest

from repro.core.policies import MSHRPolicy, blocking_cache, mc, no_restrict
from repro.experiments import get_experiment
from repro.sim.config import baseline_config
from repro.sim.simulator import simulate
from repro.workloads.spec92 import get_benchmark

SCALE = 0.5


def run_experiment(experiment_id: str, scale: float = SCALE):
    return get_experiment(experiment_id).run(scale=scale)


def lat10(result):
    """The latency-10 row of a latency-swept artifact."""
    return next(row for row in result.rows if row[0] == 10)


# -- the paper's figures and tables --------------------------------------------


def test_fig4():
    result = run_experiment("fig4")
    assert len(result.rows) == 5  # the five detailed benchmarks


def test_fig5():
    # Column order: latency, mc=0+wma, mc=0, mc=1, fc=1, mc=2, fc=2, inf.
    row = lat10(run_experiment("fig5"))
    mc0, mc1, fc1, mc2, fc2, free = row[2], row[3], row[4], row[5], \
        row[6], row[7]
    assert mc0 > mc1 > fc1 > fc2 >= free
    assert mc1 > mc2 > fc2


def test_fig6():
    # Max fetches never exceeds the 16-cycle miss penalty (single issue).
    for row in run_experiment("fig6").rows:
        if row[2] == "fetches":
            assert row[-1] <= 16


def test_fig7():
    # Blocking caches have no structural stalls by definition; the
    # restricted non-blocking organizations do at long latencies.
    result = run_experiment("fig7")
    row = lat10(result)
    header = list(result.headers)
    assert row[header.index("mc=0")] == 0.0
    assert row[header.index("mc=1")] > 0.0
    assert row[header.index("no restrict")] == 0.0


def test_fig8():
    # Secondary misses only exist on organizations that support them.
    result = run_experiment("fig8")
    row = lat10(result)
    header = list(result.headers)
    assert row[header.index("mc=0 sec%")] == 0.0
    assert row[header.index("no restrict sec%")] > 0.0


def test_fig9():
    # Hit-under-miss near-optimal: within 1.35x of unrestricted at 10.
    result = run_experiment("fig9")
    row = lat10(result)
    header = list(result.headers)
    assert row[header.index("mc=1")] <= 1.35 * row[header.index("no restrict")]


def test_fig10():
    # Full associativity removes xlisp's conflict misses (paper: 2-3x).
    result = run_experiment("fig10")
    col = list(result.headers).index("mc=1")
    fa = lat10(result)[col]
    dm = lat10(run_experiment("fig9"))[col]
    assert fa < 0.6 * dm


def test_fig11():
    # The lockup-free curves nearly coincide for eqntott.
    result = run_experiment("fig11")
    row = lat10(result)
    header = list(result.headers)
    values = [row[header.index(c)]
              for c in ("mc=1", "fc=1", "mc=2", "fc=2", "no restrict")]
    assert max(values) <= 1.2 * min(values)


def test_fig12():
    # Unrestricted MCPI decreases (weakly) with the scheduled latency.
    result = run_experiment("fig12")
    col = list(result.headers).index("no restrict")
    free = [row[col] for row in result.rows]
    assert free[-1] < free[0]


def test_fig13():
    result = run_experiment("fig13")
    assert len(result.rows) == 18
    # ora: flat across the hardware spectrum (MCPI ratios all 1.0).
    ora = next(row for row in result.rows if row[0] == "ora")
    ratios = [c for c in ora if isinstance(c, str) and c != "ora"]
    assert all(r == "1.0" for r in ratios)


def test_fig14():
    by_cell = {(row[0], row[1]): row[2]
               for row in run_experiment("fig14").rows}
    # 4-byte granularity (8x1) beats 8-byte granularity (4x1).
    assert by_cell[(8, 1)] < by_cell[(4, 1)]
    # Four explicit entries match the unrestricted reference closely.
    assert by_cell[(1, 4)] <= 1.1 * by_cell[("inf", "inf")]


def test_fig15():
    # The paper's Section 4.2 point: one fetch per set is not enough.
    result = run_experiment("fig15")
    row = lat10(result)
    header = list(result.headers)
    fs1 = row[header.index("fs=1")]
    fs2 = row[header.index("fs=2")]
    free = row[header.index("no restrict")]
    assert fs1 > 1.5 * fs2
    assert fs2 <= 1.6 * free


def test_fig16():
    # Paper: ~5x lower absolute MCPI with a 64 KB cache, same shape.
    result = run_experiment("fig16", scale=1.0)
    col = list(result.headers).index("mc=1")
    big = lat10(result)[col]
    small = lat10(run_experiment("fig5", scale=1.0))[col]
    assert big < 0.45 * small


def test_fig17():
    def rel_position(table):
        header = list(table.headers)
        row = lat10(table)
        m1 = row[header.index("mc=1")]
        m2 = row[header.index("mc=2")]
        f1 = row[header.index("fc=1")]
        return (m1 - f1) / max(m1 - m2, 1e-9)

    # With 16B lines fc=1 moves toward mc=1 (secondary misses rarer).
    assert rel_position(run_experiment("fig17")) < \
        rel_position(run_experiment("fig5"))


def test_fig18():
    rows = {row[0]: row[1:] for row in run_experiment("fig18").rows}
    penalties = [4, 8, 16, 32, 64, 128]
    mc0 = dict(zip(penalties, rows["mc=0"]))
    free = dict(zip(penalties, rows["no restrict"]))
    # Blocking scales strictly linearly with the penalty...
    assert mc0[32] / mc0[16] == pytest.approx(2.0, rel=0.05)
    # ...while the unrestricted organization is highly non-linear.
    assert free[32] / max(free[16], 1e-9) > 2.5
    assert free[4] < mc0[4] / 4


def test_fig19():
    result = run_experiment("fig19")
    assert len(result.rows) == 5
    for row in result.rows:
        ipc = row[1]
        assert 1.0 < ipc <= 2.0
        errors = row[5::2]
        # First-order agreement on the restricted organizations; the
        # aggressive organizations on software-pipelined schedules are
        # where the rule is coarsest (the paper's own worst cell was
        # tomcatv/no-restrict at +28%).
        assert all(abs(e) <= 40 for e in errors[:2])  # mc=0, mc=1
        assert all(abs(e) <= 90 for e in errors)


def test_schedule():
    # The Section 7 compiler claim across all 18 benchmarks.
    rows = {row[0]: row for row in run_experiment("schedule").rows}
    # ora: immune to both hardware and scheduling.
    assert rows["ora"][5] == 1.0 and rows["ora"][6] == 1.0
    # tomcatv: hardware alone buys ~2x; scheduling unlocks far more.
    hw_only = rows["tomcatv"][5]
    assert isinstance(hw_only, float) and hw_only < 3.0
    assert rows["tomcatv"][6] == ">50" or rows["tomcatv"][6] > 5.0


def test_costs():
    # The Section 2 hardware-cost table.
    bits = {row[0]: row[1] for row in run_experiment("costs").rows}
    assert bits["implicit(32B line, 8B sub-blocks)"] == 92
    assert bits["explicit(32B line, 4 entries)"] == 112


# -- extension experiments (Sections 2.3 / 4.2 / 5.2) --------------------------


def test_incache():
    rows = {row[0]: row for row in run_experiment("incache").rows}
    # Read-out overhead costs something on top of the fs=1 restriction.
    assert rows["in-cache(+1)"][1] > rows["fs=1 (free read-out)"][1]
    assert rows["in-cache(+3, 8B port)"][1] > rows["in-cache(+1)"][1]
    # And the transit-bit storage is far cheaper than discrete MSHRs.
    assert rows["in-cache(+1)"][3] < rows["no restrict"][3]


def test_assoc():
    by_ways = {row[0]: row for row in run_experiment("assoc").rows}
    # Direct mapped: one fetch per set hurts badly on su2cor...
    assert by_ways[1][3] > 1.5
    # ...two ways already lift the restriction almost entirely.
    assert by_ways[2][3] < 1.2


def test_linesize():
    positions = [row[-1] for row in run_experiment("linesize").rows]
    # fc=1's position between mc=1 and mc=2 grows with the line size
    # (the Section 5.2 prediction, swept): weakly monotone, and the
    # extremes are far apart.
    assert positions[0] < 0.2
    assert positions[-1] > 0.4
    assert all(b >= a - 0.1 for a, b in zip(positions, positions[1:]))


# -- ablations of the modelling assumptions (DESIGN.md section 5) --------------


def _mcpi(name, config, latency=10):
    return simulate(get_benchmark(name), config, load_latency=latency,
                    scale=SCALE).mcpi


def test_ablation_write_policy():
    """Fetch-on-write stalls are pure loss on this workload mix."""
    assert _mcpi("su2cor", baseline_config(blocking_cache(True))) > \
        _mcpi("su2cor", baseline_config(blocking_cache()))


def test_ablation_fill_ports():
    """Serializing register fills costs little (Section 6's claim).

    The paper argues the multi-write-port correction 'is probably not
    significant enough to be included'; with one fill port the MCPI
    rises only modestly.
    """
    one_port = MSHRPolicy(name="no restrict/1 port", fill_ports=1)
    serial = _mcpi("tomcatv", baseline_config(one_port))
    ideal = _mcpi("tomcatv", baseline_config(no_restrict()))
    assert ideal <= serial <= 1.5 * ideal + 0.05


def test_ablation_schedule_for_miss_not_hit():
    """The compiler conclusion: scheduling for latency 1 wastes the
    non-blocking hardware; scheduling for 10 unlocks it."""
    config = baseline_config(no_restrict())
    assert _mcpi("tomcatv", config) < \
        0.7 * _mcpi("tomcatv", config, latency=1)


def test_ablation_finite_write_buffer():
    """A small real write buffer barely moves MCPI on this mix."""
    finite = replace(baseline_config(mc(1)), write_buffer_depth=4,
                     write_buffer_retire_cycles=2)
    with_finite = _mcpi("xlisp", finite)  # store-heavy
    ideal = _mcpi("xlisp", baseline_config(mc(1)))
    assert ideal <= with_finite <= 1.5 * ideal + 0.05
