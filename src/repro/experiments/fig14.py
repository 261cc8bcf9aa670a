"""Figure 14: explicit, implicit, and hybrid MSHR organizations.

Section 4.1's grid: with unlimited MSHRs, restrict each MSHR's
destination fields to ``n_subblocks x misses_per_subblock`` and measure
doduc's MCPI at load latency 10.  The paper's populated cells:

==============  =====================================
sub-blocks      misses per sub-block
==============  =====================================
1               1, 2, 4          (explicitly addressed)
2               2                (hybrid)
4               1                (implicit, 8B words)
8               1                (implicit, 4B words)
inf             (the unrestricted reference)
==============  =====================================

The experiment also reports each organization's storage cost from the
Section 2 formulas (the paper quotes 140 bits for the 8x1 implicit,
112 for the 4-entry explicit, and 106 for the 2x2 hybrid).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.tables import format_ratio, ratio
from repro.core.cost import explicit_mshr_bits, hybrid_mshr_bits, implicit_mshr_bits
from repro.core.policies import no_restrict, with_layout
from repro.experiments.base import ExperimentOptions, ExperimentResult, register
from repro.sim.sweep import run_table
from repro.workloads.spec92 import get_benchmark

#: (n_subblocks, misses_per_subblock) cells of the paper's table;
#: ``None`` marks the unrestricted reference row.
GRID: Tuple[Optional[Tuple[int, int]], ...] = (
    (1, 1),
    (1, 2),
    (1, 4),
    (2, 2),
    (4, 1),
    (8, 1),
    None,
)


def _cost_bits(n_subblocks: int, misses: int, line_size: int = 32) -> int:
    if n_subblocks == 1:
        return explicit_mshr_bits(line_size, misses)
    if misses == 1:
        return implicit_mshr_bits(line_size, line_size // n_subblocks)
    return hybrid_mshr_bits(line_size, n_subblocks, misses)


@register(
    "fig14",
    "Explicit, implicit, and hybrid MSHRs for doduc",
    "Figure 14 (Section 4.1)",
)
def run(options: ExperimentOptions) -> ExperimentResult:
    scale = options.scale
    benchmark = options.resolved_benchmark("doduc")
    load_latency = options.resolved_latency(10)
    workload = get_benchmark(benchmark)
    unrestricted = no_restrict()
    layouts = {cell: with_layout(*cell) for cell in GRID if cell is not None}
    table = run_table([workload], [unrestricted, *layouts.values()],
                      load_latency=load_latency, scale=scale)
    reference = table.mcpi(workload.name, unrestricted.name)

    headers = ["sub-blocks", "misses/sub-block", "MCPI", "ratio", "bits/MSHR"]
    rows: List[List[object]] = []
    for cell in GRID:
        if cell is None:
            rows.append(["inf", "inf", reference, format_ratio(1.0), None])
            continue
        n_sub, misses = cell
        mcpi = table.mcpi(workload.name, layouts[cell].name)
        rows.append([
            n_sub,
            misses,
            mcpi,
            format_ratio(ratio(mcpi, reference)),
            _cost_bits(n_sub, misses),
        ])
    return ExperimentResult(
        experiment_id="fig14",
        title=(
            f"MSHR destination-field organizations for {benchmark} "
            f"(latency {load_latency}, unlimited MSHRs)"
        ),
        headers=headers,
        rows=rows,
        notes=(
            "Paper: a 4-entry explicit MSHR (112 bits) or an 8-sub-block "
            "implicit MSHR (140 bits) comes within 1% of unrestricted; the "
            "2x2 hybrid (stated as 106 bits; its formula gives 108) is "
            "slightly worse but cheapest.  The 4B "
            "granularity matters because doduc performs 32-bit loads."
        ),
    )
