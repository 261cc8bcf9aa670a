"""Extension: the Section 7 compiler claim, tabulated.

The paper's final conclusion: "our results point out the importance in
non-blocking systems of scheduling load instructions wherever possible
for cache misses instead of cache hits."  The baseline figures show it
as curve slopes for five benchmarks; this experiment tabulates it for
all 18: the MCPI of unrestricted hardware under a schedule prepared
for hits (latency 1) versus for misses (latency 10/20), and the
hardware-alone gain for comparison.

Reading the table: "hw only" is what buying an inverted MSHR achieves
under hit-scheduled code; "hw+sched" adds the recompilation.  For the
numeric codes most of the value of the hardware is only unlocked by
the compiler -- the paper's point.
"""

from __future__ import annotations

from typing import List

from repro.core.policies import blocking_cache, no_restrict
from repro.experiments.base import ExperimentOptions, ExperimentResult, register
from repro.sim.config import baseline_config
from repro.sim.planner import execute_cells


@register(
    "schedule",
    "Extension: scheduling for the miss vs for the hit (all benchmarks)",
    "Section 7 (the compiler conclusion, tabulated)",
)
def run(options: ExperimentOptions) -> ExperimentResult:
    scale = options.scale
    from repro.workloads.spec92 import BENCHMARK_ORDER, get_benchmark

    base = baseline_config()
    headers = [
        "benchmark",
        "mc=0 @lat1",          # the starting point: blocking, hit-scheduled
        "inf @lat1",           # hardware alone
        "inf @lat10",          # hardware + miss scheduling
        "inf @lat20",
        "hw only x",           # improvement factors over the start
        "hw+sched x",
    ]
    rows: List[List[object]] = []
    blocking = base.with_policy(blocking_cache())
    free = base.with_policy(no_restrict())
    cells = []
    for name in BENCHMARK_ORDER:
        workload = get_benchmark(name)
        cells.extend([
            (workload, blocking, 1, scale),
            (workload, free, 1, scale),
            (workload, free, 10, scale),
            (workload, free, 20, scale),
        ])
    results = iter(execute_cells(cells))
    for name in BENCHMARK_ORDER:
        blocking_hit, free_hit, free_10, free_20 = (
            next(results).mcpi for _ in range(4))
        best = min(free_10, free_20)

        def factor(denominator: float) -> object:
            # A denominator of (near-)zero means the schedule hid
            # every stall cycle: report a capped factor rather than
            # dividing by zero.
            if denominator < blocking_hit / 50:
                return ">50"
            return round(blocking_hit / denominator, 1)

        rows.append([
            name, blocking_hit, free_hit, free_10, free_20,
            factor(free_hit) if blocking_hit else None,
            factor(best) if blocking_hit else None,
        ])
    return ExperimentResult(
        experiment_id="schedule",
        title="Unrestricted-hardware MCPI under hit- vs miss-scheduled code",
        headers=headers,
        rows=rows,
        notes=(
            "Paper, Section 4: 'all the lockup-free implementations achieve "
            "very similar MCPIs for a load latency of 1' -- hardware alone "
            "buys little under hit-scheduled code (the 'hw only' column), "
            "because the consumer sits right behind each load.  "
            "Rescheduling for misses unlocks the hardware ('hw+sched'), "
            "most dramatically for the numeric codes; dependence-bound "
            "models (ora, spice2g6, xlisp) stay put under both columns, "
            "which is equally part of the paper's story.  Exact zeros at "
            "latency 20 are real in this idealized model: every load sits "
            "more than a miss penalty ahead of its first use, so nothing "
            "is exposed (the paper's machines retain small residuals)."
        ),
    )
