"""Figure 6: histogram of in-flight misses and fetches for doduc.

For each scheduled load latency the paper tabulates, under the
unrestricted organization: the percentage of run time with at least
one miss in flight (MIF), the conditional distribution over 1..7+
in-flight misses/fetches, and the run maxima.  The maximum number of
fetches never exceeds the miss penalty because only one load can issue
per cycle.
"""

from __future__ import annotations

from typing import List

from repro.core.policies import no_restrict
from repro.experiments.base import ExperimentOptions, ExperimentResult, register
from repro.sim.sweep import run_curves
from repro.workloads.spec92 import get_benchmark


@register(
    "fig6",
    "Histogram of in-flight misses and fetches for doduc",
    "Figure 6 (Section 4)",
)
def run(options: ExperimentOptions) -> ExperimentResult:
    scale = options.scale
    benchmark = options.resolved_benchmark("doduc")
    workload = get_benchmark(benchmark)
    policy = no_restrict()
    headers = (
        ["load latency", "% time >0 in flight", "kind"]
        + [str(i) for i in range(1, 7)]
        + ["7+", "max #"]
    )
    rows: List[List[object]] = []
    sweep = run_curves(workload, [policy], scale=scale)
    for lat, result in zip(sweep.latencies, sweep.results[policy.name]):
        miss = result.miss
        for kind, pct, dist, peak in (
            ("misses", miss.pct_time_misses_inflight,
             miss.miss_inflight_distribution(), miss.max_misses_inflight),
            ("fetches", miss.pct_time_fetches_inflight,
             miss.fetch_inflight_distribution(), miss.max_fetches_inflight),
        ):
            rows.append(
                [lat, round(100 * pct), kind]
                + [round(100 * p) for p in dist]
                + [peak]
            )
    return ExperimentResult(
        experiment_id="fig6",
        title=f"In-flight miss/fetch histograms for {benchmark} (no restrict)",
        headers=headers,
        rows=rows,
        notes=(
            "Paper for doduc: at latency 1 there is >0 misses in flight 27% "
            "of the time and 92% of that time only one; at latency 20, >1 "
            "miss is in flight 6x more often than at latency 1.  Max fetches "
            "never exceeds the 16-cycle miss penalty (single-issue)."
        ),
    )
