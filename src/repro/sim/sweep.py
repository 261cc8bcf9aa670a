"""Sweep harness: the cartesian runs behind every figure and table.

The paper's results are sweeps over (benchmark x hardware policy x
scheduled load latency x cache geometry x miss penalty).  These
helpers run such sweeps by lowering each to a flat cell list and
handing it to the unified planner (:mod:`repro.sim.planner`), which
deduplicates identical cells, serves previously-simulated cells from
the content-addressed result store, and dispatches the remainder
through the cache-affine pool.  ``workers=1`` (the default) keeps
execution in-process and bit-identical to direct ``simulate`` calls;
any other value fans the missing cells across processes.

Each helper keys its results by name, so it refuses two workloads or
two policies that share one before it plans a cell: otherwise one of
them would silently lose its row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.policies import MSHRPolicy
from repro.errors import ConfigurationError
from repro.sim.config import MachineConfig, baseline_config
from repro.sim.parallel import Cell
from repro.sim.planner import execute_cells
from repro.sim.stats import SimulationResult
from repro.workloads.workload import Workload

#: The load latencies the paper's compiler sweep used (Section 6:
#: "the set {1,2,3,6,10,20}").
PAPER_LATENCIES: Tuple[int, ...] = (1, 2, 3, 6, 10, 20)


def _require_unique_names(kind: str, entries: Sequence) -> None:
    """Refuse two ``entries`` that share a name; the results key by it."""
    first: Dict[str, int] = {}
    for index, entry in enumerate(entries):
        earlier = first.setdefault(entry.name, index)
        if earlier != index:
            raise ConfigurationError(
                f"{kind}[{earlier}] and {kind}[{index}] are both named "
                f"{entry.name!r}; the sweep keys its results by name, so "
                f"one would be lost -- give each a distinct name")


@dataclass
class CurveSweep:
    """MCPI-vs-latency curves for one workload (a Figure 5-style plot)."""

    workload: str
    latencies: Tuple[int, ...]
    #: policy name -> list of results parallel to ``latencies``.
    results: Dict[str, List[SimulationResult]] = field(default_factory=dict)

    def mcpi_curve(self, policy: str) -> List[float]:
        """The MCPI series for one policy."""
        return [r.mcpi for r in self.results[policy]]

    def policies(self) -> List[str]:
        return list(self.results)


def run_curves(
    workload: Workload,
    policies: Sequence[MSHRPolicy],
    latencies: Iterable[int] = PAPER_LATENCIES,
    base: Optional[MachineConfig] = None,
    scale: float = 1.0,
    workers: Optional[int] = 1,
) -> CurveSweep:
    """Sweep load latency x policy for one workload."""
    _require_unique_names("policies", policies)
    if base is None:
        base = baseline_config()
    lat_list = tuple(latencies)
    cells: List[Cell] = [
        (workload, base.with_policy(policy), lat, scale)
        for policy in policies
        for lat in lat_list
    ]
    results = execute_cells(cells, workers=workers)

    sweep = CurveSweep(workload=workload.name, latencies=lat_list)
    index = 0
    for policy in policies:
        sweep.results[policy.name] = results[index:index + len(lat_list)]
        index += len(lat_list)
    return sweep


@dataclass
class TableSweep:
    """MCPI for benchmarks x policies at one latency (Figure 13 shape)."""

    load_latency: int
    policy_names: Tuple[str, ...]
    #: workload name -> policy name -> result.
    rows: Dict[str, Dict[str, SimulationResult]] = field(default_factory=dict)

    def mcpi(self, workload: str, policy: str) -> float:
        return self.rows[workload][policy].mcpi

    def ratio(self, workload: str, policy: str, reference: str) -> float:
        """MCPI ratio of ``policy`` to ``reference`` (paper's ratio columns)."""
        ref = self.mcpi(workload, reference)
        if ref == 0:
            return float("inf") if self.mcpi(workload, policy) > 0 else 1.0
        return self.mcpi(workload, policy) / ref


def run_table(
    workloads: Sequence[Workload],
    policies: Sequence[MSHRPolicy],
    load_latency: int = 10,
    base: Optional[MachineConfig] = None,
    scale: float = 1.0,
    workers: Optional[int] = 1,
) -> TableSweep:
    """Sweep benchmarks x policies at a single scheduled latency."""
    _require_unique_names("workloads", workloads)
    _require_unique_names("policies", policies)
    if base is None:
        base = baseline_config()
    cells: List[Cell] = [
        (workload, base.with_policy(policy), load_latency, scale)
        for workload in workloads
        for policy in policies
    ]
    results = execute_cells(cells, workers=workers)

    table = TableSweep(
        load_latency=load_latency,
        policy_names=tuple(p.name for p in policies),
    )
    index = 0
    for workload in workloads:
        row: Dict[str, SimulationResult] = {}
        for policy in policies:
            row[policy.name] = results[index]
            index += 1
        table.rows[workload.name] = row
    return table


def run_penalty_sweep(
    workload: Workload,
    policies: Sequence[MSHRPolicy],
    penalties: Sequence[int],
    load_latency: int = 10,
    base: Optional[MachineConfig] = None,
    scale: float = 1.0,
    workers: Optional[int] = 1,
) -> Dict[str, Dict[int, SimulationResult]]:
    """Sweep miss penalty x policy (Figure 18 shape)."""
    _require_unique_names("policies", policies)
    if base is None:
        base = baseline_config()
    cells: List[Cell] = [
        (workload, replace(base, policy=policy, miss_penalty=penalty),
         load_latency, scale)
        for policy in policies
        for penalty in penalties
    ]
    results = execute_cells(cells, workers=workers)

    out: Dict[str, Dict[int, SimulationResult]] = {}
    index = 0
    for policy in policies:
        per_policy: Dict[int, SimulationResult] = {}
        for penalty in penalties:
            per_policy[penalty] = results[index]
            index += 1
        out[policy.name] = per_policy
    return out
