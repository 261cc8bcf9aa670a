"""Extension: in-cache MSHR storage priced in full (Section 2.3).

Not a numbered figure -- the paper evaluates in-cache MSHR storage
through its ``fs=1`` restriction (Figure 15) and describes, without
measuring, its second cost: the MSHR information stored in the transit
line must be read back out when the fetch data arrives, adding fill
latency unless the record is kept within the cache's read-port width.

This experiment separates the two effects on su2cor (the benchmark
most sensitive to per-set restrictions) and doduc (a moderate case):
``fs=1`` alone, in-cache storage with the recommended single extra
read-out cycle, and a naive implementation that re-reads the whole
32-byte line through an 8-byte port (three extra cycles).  The storage
comparison (256 transit bits vs kilobits of discrete MSHRs) comes from
the Section 2 cost model.
"""

from __future__ import annotations

from typing import List

from repro.core.cost import explicit_mshr_cost, in_cache_storage_cost
from repro.core.policies import fs, in_cache, no_restrict
from repro.experiments.base import ExperimentOptions, ExperimentResult, register
from repro.sim.sweep import run_table


@register(
    "incache",
    "Extension: in-cache MSHR storage with fill read-out overhead",
    "Section 2.3 (discussion made quantitative)",
)
def run(options: ExperimentOptions) -> ExperimentResult:
    scale = options.scale
    load_latency = options.resolved_latency(10)
    from repro.workloads.spec92 import get_benchmark

    policies = (
        fs(1).renamed("fs=1 (free read-out)"),
        in_cache(1),
        in_cache(3).renamed("in-cache(+3, 8B port)"),
        no_restrict(),
    )
    headers = ["organization"] + ["su2cor", "doduc"] + ["storage bits"]
    transit = in_cache_storage_cost(8 * 1024, 32).total_bits
    discrete = explicit_mshr_cost(32, 4, n_mshrs=16).total_bits
    storage = {
        "fs=1 (free read-out)": transit,
        "in-cache(+1)": transit,
        "in-cache(+3, 8B port)": transit,
        "no restrict": discrete,
    }
    rows: List[List[object]] = []
    benchmarks = ("su2cor", "doduc")
    table = run_table([get_benchmark(bench) for bench in benchmarks],
                      policies, load_latency=load_latency, scale=scale)
    for policy in policies:
        row: List[object] = [policy.name]
        row.extend(table.mcpi(bench, policy.name) for bench in benchmarks)
        row.append(storage[policy.name])
        rows.append(row)
    return ExperimentResult(
        experiment_id="incache",
        title="In-cache MSHR storage: per-set limit plus fill read-out",
        headers=headers,
        rows=rows,
        notes=(
            "The transit-bit organization stores MSHRs almost for free "
            "(one bit per line) but pays twice at runtime: one fetch per "
            "set, and extra fill cycles to read the MSHR record out of the "
            "line.  Keeping the record within the read-port width (the "
            "paper's recommendation) limits the latter to one cycle.  The "
            "'no restrict' row is priced as sixteen 4-entry discrete MSHRs."
        ),
    )
