"""The complexity/performance tradeoff as a queryable design space.

The paper's title question -- how much non-blocking performance does
each increment of MSHR hardware buy -- becomes, for a downstream user,
a concrete design problem: *given a storage budget, which organization
should I build for my workload?*  This module prices a catalogue of
practical designs with the Section 2 cost model, measures each on a
workload, and answers budget and frontier queries.

The catalogue spans the paper's whole spectrum: a lockup cache,
``mc=N`` banks of single-field MSHRs, ``fc=N`` banks of explicitly
addressed MSHRs, implicit/hybrid field layouts, the in-cache
transit-bit organization, and the inverted MSHR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.screen import run_band
from repro.core.cost import (
    explicit_mshr_bits,
    hybrid_mshr_bits,
    implicit_mshr_bits,
    in_cache_storage_cost,
    inverted_mshr_cost,
)
from repro.core.policies import (
    MSHRPolicy,
    blocking_cache,
    fc,
    in_cache,
    mc,
    no_restrict,
    with_layout,
)
from repro.errors import ConfigurationError
from repro.sim.config import MachineConfig, baseline_config
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class DesignPoint:
    """One priced, measured hardware design.

    ``mcpi`` is the point's reportable value: the true MCPI when the
    design was resolved exactly, or the sound **upper bound** when the
    screening tier pruned it without simulation (so frontier and
    budget queries stay conservative).  ``mcpi_low``/``mcpi_high``
    carry the bracket when one was computed; ``fidelity`` says which
    kind of value this is (``exact`` or ``screen``).
    """

    description: str
    policy: MSHRPolicy
    storage_bits: int
    mcpi: float
    mcpi_low: Optional[float] = None
    mcpi_high: Optional[float] = None
    fidelity: str = "exact"

    @property
    def exact(self) -> bool:
        return self.fidelity == "exact"

    @property
    def bound_width(self) -> float:
        """Width of the MCPI bracket (0.0 for exact points)."""
        if self.mcpi_low is None or self.mcpi_high is None:
            return 0.0
        return self.mcpi_high - self.mcpi_low

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance on (bits, MCPI), at least one strict."""
        return (
            self.storage_bits <= other.storage_bits
            and self.mcpi <= other.mcpi
            and (self.storage_bits < other.storage_bits
                 or self.mcpi < other.mcpi)
        )


def design_catalogue(
    line_size: int = 32, cache_size: int = 8 * 1024
) -> List[tuple]:
    """(description, policy, storage bits) for the studied designs.

    Unlimited-MSHR layout policies are priced at sixteen MSHRs -- the
    most a 16-cycle-penalty single-issue machine can occupy.
    """
    catalogue: List[tuple] = [
        ("lockup cache", blocking_cache(), 0),
    ]
    for n in (1, 2, 4):
        catalogue.append((
            f"{n} single-field MSHR{'s' if n > 1 else ''}",
            mc(n), n * explicit_mshr_bits(line_size, 1),
        ))
    for n in (1, 2, 4):
        catalogue.append((
            f"{n} four-field explicit MSHR{'s' if n > 1 else ''}",
            fc(n), n * explicit_mshr_bits(line_size, 4),
        ))
    catalogue.append((
        "in-cache transit bits", in_cache(1),
        in_cache_storage_cost(cache_size, line_size).total_bits,
    ))
    words = line_size // 8
    catalogue.append((
        "16 implicit MSHRs (8B words)", with_layout(words, 1),
        16 * implicit_mshr_bits(line_size, 8),
    ))
    catalogue.append((
        "16 implicit MSHRs (4B words)", with_layout(2 * words, 1),
        16 * implicit_mshr_bits(line_size, 4),
    ))
    catalogue.append((
        "16 hybrid 2x2 MSHRs", with_layout(2, 2),
        16 * hybrid_mshr_bits(line_size, 2, 2),
    ))
    catalogue.append((
        "inverted MSHR (70 dest)", no_restrict(),
        inverted_mshr_cost(70, line_size).total_bits,
    ))
    return catalogue


def evaluate_designs(
    workload: Workload,
    base: Optional[MachineConfig] = None,
    load_latency: int = 10,
    scale: float = 0.25,
    catalogue: Optional[Sequence[tuple]] = None,
    fidelity: Optional[str] = None,
    workers: Optional[int] = 1,
) -> List[DesignPoint]:
    """Measure every catalogue design on ``workload``.

    Runs through the multi-fidelity screening front end
    (:mod:`repro.analysis.screen`); the default ``auto`` fidelity
    screens the catalogue analytically and exact-simulates only the
    cells that can still reach the Pareto frontier, so frontier and
    budget queries are identical to an exhaustive run at a fraction of
    the simulations.  Pass ``fidelity="exact"`` (or set
    ``REPRO_FIDELITY``) for the exhaustive behaviour; either way every
    simulation goes through the planner's memoized store and is
    dispatched across ``workers`` processes.
    """
    if base is None:
        base = baseline_config()
    if catalogue is None:
        catalogue = design_catalogue(
            line_size=base.geometry.line_size, cache_size=base.geometry.size
        )
    cells = [
        (workload, base.with_policy(policy), load_latency, scale)
        for _, policy, _ in catalogue
    ]
    bits = [b for _, _, b in catalogue]
    entries, _ = run_band(cells, bits, fidelity=fidelity, default="auto",
                          workers=workers)
    points: List[DesignPoint] = []
    for entry, (description, policy, storage_bits) in zip(entries, catalogue):
        if entry.result is not None:
            mcpi = entry.result.mcpi
            points.append(DesignPoint(
                description=description, policy=policy,
                storage_bits=storage_bits, mcpi=mcpi,
                mcpi_low=mcpi, mcpi_high=mcpi, fidelity="exact",
            ))
            continue
        bounds = entry.bounds
        points.append(DesignPoint(
            description=description, policy=policy,
            storage_bits=storage_bits, mcpi=bounds.mcpi_high,
            mcpi_low=bounds.mcpi_low, mcpi_high=bounds.mcpi_high,
            fidelity="exact" if bounds.exact else "screen",
        ))
    return points


def pareto_frontier(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """The non-dominated designs, cheapest first."""
    frontier = [
        p for p in points
        if not any(q.dominates(p) for q in points)
    ]
    return sorted(frontier, key=lambda p: (p.storage_bits, p.mcpi))


def best_under_budget(
    points: Sequence[DesignPoint], bit_budget: int
) -> DesignPoint:
    """The lowest-MCPI design whose storage fits ``bit_budget``."""
    affordable = [p for p in points if p.storage_bits <= bit_budget]
    if not affordable:
        raise ConfigurationError(
            f"no design fits a {bit_budget}-bit budget "
            f"(the lockup cache costs 0 bits; is the catalogue empty?)"
        )
    return min(affordable, key=lambda p: (p.mcpi, p.storage_bits))


def marginal_utilities(frontier: Sequence[DesignPoint]) -> List[float]:
    """MCPI improvement per extra kilobit along the frontier.

    Parallel to ``frontier[1:]``: how much each upgrade buys per 1024
    added bits -- the paper's cost-effectiveness reading of its tables.
    """
    utilities: List[float] = []
    for prev, nxt in zip(frontier, frontier[1:]):
        extra_bits = nxt.storage_bits - prev.storage_bits
        gain = prev.mcpi - nxt.mcpi
        utilities.append(gain / (extra_bits / 1024) if extra_bits else 0.0)
    return utilities
