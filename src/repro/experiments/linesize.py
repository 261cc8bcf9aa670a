"""Extension: the line-size tradeoff swept end to end (Section 5.2).

The paper compares 16B and 32B lines and predicts the limits: "In the
limit as the cache line size is reduced to a single word, the fc=1
organization will have the same miss CPI as the mc=1 organization",
and conversely that larger lines favour secondary-miss support.  This
experiment sweeps the line size from 8B to 128B on a fixed-capacity
cache, with the paper's pipelined-memory penalty rule (14 cycles plus
2 per extra 16B chunk), and reports for each size:

* the four organizations that frame the tradeoff, and
* fc=1's *relative position* between mc=1 and mc=2
  (0 = no better than mc=1, 1 = as good as mc=2),

which makes the predicted monotone drift visible as one column.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.memory import penalty_for_line_size
from repro.core.policies import fc, mc, no_restrict
from repro.experiments.base import ExperimentOptions, ExperimentResult, register
from repro.sim.config import baseline_config
from repro.sim.planner import execute_cells

LINE_SIZES: Tuple[int, ...] = (8, 16, 32, 64, 128)


@register(
    "linesize",
    "Extension: the fc-vs-mc tradeoff across line sizes",
    "Section 5.2 (the two-point comparison swept end to end)",
)
def run(options: ExperimentOptions) -> ExperimentResult:
    scale = options.scale
    benchmark = options.resolved_benchmark("doduc")
    load_latency = options.resolved_latency(10)
    from repro.workloads.spec92 import get_benchmark

    workload = get_benchmark(benchmark)
    headers = ["line size", "penalty", "mc=1", "fc=1", "mc=2",
               "no restrict", "fc=1 position"]
    rows: List[List[object]] = []
    policies = (mc(1), fc(1), mc(2), no_restrict())
    cells = []
    for line_size in LINE_SIZES:
        base = replace(
            baseline_config(),
            geometry=CacheGeometry(size=8 * 1024, line_size=line_size,
                                   associativity=1),
            miss_penalty=penalty_for_line_size(line_size),
        )
        cells.extend((workload, base.with_policy(policy), load_latency, scale)
                     for policy in policies)
    results = iter(execute_cells(cells))
    for line_size in LINE_SIZES:
        penalty = penalty_for_line_size(line_size)
        values = {policy.name: next(results).mcpi for policy in policies}
        gap = values["mc=1"] - values["mc=2"]
        position = ((values["mc=1"] - values["fc=1"]) / gap
                    if gap > 1e-9 else 0.0)
        rows.append([
            line_size, penalty,
            values["mc=1"], values["fc=1"], values["mc=2"],
            values["no restrict"],
            round(position, 2),
        ])
    return ExperimentResult(
        experiment_id="linesize",
        title=f"Line-size sweep for {benchmark} (fixed 8KB capacity, "
              f"Section 5.2 penalty rule)",
        headers=headers,
        rows=rows,
        notes=(
            "The paper's prediction reads off the last column: with tiny "
            "lines there is nothing for secondary misses to merge into, so "
            "fc=1 degenerates toward mc=1 (position -> 0); growing the line "
            "multiplies same-line merging opportunities and fc=1 climbs "
            "toward (and past) mc=2's side of the gap.  Absolute MCPI is "
            "U-shaped in the line size under the Section 5.2 penalty rule: "
            "tiny lines waste the pipelined memory's burst, very large "
            "lines pay for bytes nothing uses."
        ),
    )
