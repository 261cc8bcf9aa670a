"""Seed replication: how robust are the synthetic-workload results?

The paper simulated fixed SPEC92 reference streams; our workload models
are seeded stochastic processes, so any MCPI we report is one draw.
This module reruns a configuration under several workload seeds and
summarizes the spread, which both quantifies the models' stability and
gives experiments an honest error bar.

The compiled schedule is seed-independent (seeds only drive address
generation), so replications share compilation and differ only in the
expanded traces.  The seeds of one configuration run as one plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.config import MachineConfig, baseline_config
from repro.sim.planner import execute_cells
from repro.workloads.workload import Workload

#: Two-sided 95% normal quantile (adequate for the ~5-10 replications
#: these summaries use; the spread itself is the headline).
Z95 = 1.96


@dataclass(frozen=True)
class ReplicationSummary:
    """MCPI statistics over seed replications of one configuration."""

    workload: str
    policy: str
    load_latency: int
    seeds: Sequence[int]
    mcpis: Sequence[float]

    @property
    def n(self) -> int:
        return len(self.mcpis)

    @property
    def mean(self) -> float:
        return sum(self.mcpis) / self.n

    @property
    def stdev(self) -> float:
        if self.n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.mcpis) / (self.n - 1))

    @property
    def ci95_half_width(self) -> float:
        """Half-width of the ~95% confidence interval on the mean."""
        if self.n < 2:
            return 0.0
        return Z95 * self.stdev / math.sqrt(self.n)

    @property
    def relative_spread(self) -> float:
        """(max - min) / mean: the headline stability number."""
        if not self.mean:
            return 0.0
        return (max(self.mcpis) - min(self.mcpis)) / self.mean

    def describe(self) -> str:
        return (
            f"{self.workload}/{self.policy} @ latency {self.load_latency}: "
            f"MCPI {self.mean:.3f} +/- {self.ci95_half_width:.3f} "
            f"(n={self.n}, spread {100 * self.relative_spread:.1f}%)"
        )


def replicate(
    workload: Workload,
    config: Optional[MachineConfig] = None,
    load_latency: int = 10,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    scale: float = 0.25,
) -> ReplicationSummary:
    """Run one configuration under several workload seeds."""
    if not seeds:
        raise ConfigurationError("replicate needs at least one seed")
    if config is None:
        config = baseline_config()
    # A distinct seed gives a fresh Workload; the kernel object is
    # shared, so compiled schedules stay cached.  Each seed has its own
    # content fingerprint, so the result store keeps the replications
    # distinct.
    results = execute_cells([
        (replace(workload, seed=seed), config, load_latency, scale)
        for seed in seeds
    ])
    mcpis = [result.mcpi for result in results]
    return ReplicationSummary(
        workload=workload.name,
        policy=config.policy.name,
        load_latency=load_latency,
        seeds=tuple(seeds),
        mcpis=tuple(mcpis),
    )
