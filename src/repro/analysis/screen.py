"""The multi-fidelity front end: screen cells, simulate only the band.

Design-space sweeps ask a thousand cells the same question -- *where is
the cost/performance frontier?* -- and most cells only need enough
precision to prove they are not on it.  This module stacks the
analytical bracket of :mod:`repro.sim.bounds` in front of the exact
engines as a **fidelity ladder**:

``screen``
    Interval bounds only: no cell is simulated (except the few whose
    summary cannot be bounded, which fall back cause-tagged).  Results
    are honest ``[lower, upper]`` brackets; closed-form families
    (blocking, perfect cache, no memory ops) come back exact.
``auto``
    Screen first, then exact-simulate only the cells that still
    matter.  For priced design spaces this runs the *running-frontier*
    loop: simulate the cheapest undominated survivors, feed their true
    values back into the proof-dominance test, and repeat until every
    remaining cell is provably off the frontier.  For flat tables
    (no storage pricing) it simulates exactly the non-closed-form
    cells, so the table equals the ``exact`` one with fewer replays.
``exact``
    Today's behaviour: every cell through the planner and engines.

Selection mirrors the engine registry's single resolution path
(:mod:`repro.sim.engines`): an explicit ``fidelity=`` argument beats
``REPRO_FIDELITY`` beats the caller's default.

**Soundness of the pruning rule.**  Cell ``B`` is pruned only when some
cell ``A`` has ``bits_A <= bits_B`` and ``upper_A <= lower_B`` with at
least one strict (upper/lower are end-cycle bounds; resolved cells use
their exact value for both).  Since ``true_A <= upper_A <= lower_B <=
true_B``, the true point of ``A`` dominates the true point of ``B``;
chaining grounds in a resolved cell, so **no true-frontier cell is
ever pruned** and -- with pruned cells reported at their conservative
upper bound -- the Pareto frontier over the returned points equals the
exhaustive one.  Bound comparisons are exact integer cross products of
``(cycles - instructions, instructions)`` pairs, never floats.

Telemetry lands under ``screen.*`` (cells, exact, interval, fallbacks
by cause, pruned, simulated, frontier overlap, bound-width histogram);
see ``docs/observability.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.core.policies import no_restrict
from repro.errors import ConfigurationError
from repro.sim.bounds import CellBounds, cell_bounds, screen_support
from repro.sim.config import MachineConfig, baseline_config
from repro.sim.parallel import Cell, _checked_workers
from repro.sim.planner import execute_cells
from repro.sim.stats import SimulationResult
from repro.sim.sweep import _require_unique_names
from repro.workloads.workload import Workload

# -- the fidelity ladder -------------------------------------------------------


@dataclass(frozen=True)
class Fidelity:
    """One rung of the fidelity ladder."""

    name: str
    description: str


SCREEN = Fidelity(
    "screen",
    "interval bounds only; no simulation (cause-tagged fallback aside)",
)
AUTO = Fidelity(
    "auto",
    "screen first, exact-simulate only the surviving frontier band",
)
EXACT = Fidelity(
    "exact",
    "every cell through the planner and exact engines",
)

#: Ladder order, cheapest first.
FIDELITY_ORDER: Tuple[str, ...] = ("screen", "auto", "exact")

FIDELITIES: Dict[str, Fidelity] = {
    f.name: f for f in (SCREEN, AUTO, EXACT)
}

#: Environment variable consulted when no explicit fidelity is given.
FIDELITY_ENV = "REPRO_FIDELITY"


def fidelity_names() -> Tuple[str, ...]:
    """Valid ``fidelity=`` / ``--fidelity`` / ``REPRO_FIDELITY`` values."""
    return FIDELITY_ORDER


def get_fidelity(name: str) -> Fidelity:
    """Look up one fidelity by name."""
    label = name.strip().lower()
    fidelity = FIDELITIES.get(label)
    if fidelity is None:
        raise ConfigurationError(
            f"unknown fidelity '{name}'; valid fidelities: "
            f"{', '.join(fidelity_names())}"
        )
    return fidelity


def resolve_fidelity(
    name: Optional[str] = None, default: str = "exact"
) -> Fidelity:
    """The single selection path: argument, ``REPRO_FIDELITY``, default.

    ``default`` is the call site's own fallback: design-space
    evaluation defaults to ``auto`` (its outputs are frontier queries,
    which screening preserves exactly), while plain sweeps default to
    ``exact`` (their outputs are the per-cell numbers themselves).
    """
    if name is not None:
        return get_fidelity(name)
    env = os.environ.get(FIDELITY_ENV)
    if env is not None:
        return get_fidelity(env)
    return get_fidelity(default)


# -- screening cells -----------------------------------------------------------


@dataclass(frozen=True)
class ScreenedCell:
    """One cell's screening outcome: a bracket or a fallback cause."""

    cell: Cell
    bounds: Optional[CellBounds]
    cause: Optional[str]


#: Width histogram edges, in MCPI units.
WIDTH_BUCKETS: Tuple[float, ...] = (
    0.0, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0
)

def _screen_metrics():
    """The ``screen.*`` metrics, all registered together."""
    m = telemetry.metrics()
    return {
        "cells": m.counter("screen.cells"),
        "exact": m.counter("screen.exact"),
        "interval": m.counter("screen.interval"),
        "fallbacks": m.counter("screen.fallbacks"),
        "fallback.dual_issue": m.counter("screen.fallback.dual_issue"),
        "fallback.fill_ports": m.counter("screen.fallback.fill_ports"),
        "fallback.wma_nonblocking": m.counter(
            "screen.fallback.wma_nonblocking"),
        "pruned": m.counter("screen.pruned"),
        "simulated": m.counter("screen.simulated"),
        "frontier_overlap": m.counter("screen.frontier_overlap"),
        "width": m.histogram("screen.bound_width", bounds=WIDTH_BUCKETS),
    }


def screen_cell(cell: Cell) -> ScreenedCell:
    """Bracket one cell analytically (no telemetry; see screen_cells)."""
    workload, config, load_latency, scale = cell
    cause = screen_support(config)
    if cause is not None:
        return ScreenedCell(cell=cell, bounds=None, cause=cause)
    bounds = cell_bounds(workload, config, load_latency, scale)
    return ScreenedCell(cell=cell, bounds=bounds, cause=None)


def screen_cells(cells: Sequence[Cell]) -> List[ScreenedCell]:
    """Bracket every cell, recording the ``screen.*`` telemetry."""
    screened = [screen_cell(cell) for cell in cells]
    if telemetry.enabled():
        handles = _screen_metrics()
        handles["cells"].inc(len(screened))
        for s in screened:
            if s.cause is not None:
                handles["fallbacks"].inc()
                handles[f"fallback.{s.cause}"].inc()
            elif s.bounds.exact:
                handles["exact"].inc()
                handles["width"].observe(0.0)
            else:
                handles["interval"].inc()
                handles["width"].observe(s.bounds.width)
    return screened


# -- exact interval comparisons ------------------------------------------------


def _stall_le(cyc_a: int, instr_a: int, cyc_b: int, instr_b: int) -> bool:
    """``(cyc_a-instr_a)/instr_a <= (cyc_b-instr_b)/instr_b`` exactly."""
    return (cyc_a - instr_a) * instr_b <= (cyc_b - instr_b) * instr_a


def _stall_lt(cyc_a: int, instr_a: int, cyc_b: int, instr_b: int) -> bool:
    return (cyc_a - instr_a) * instr_b < (cyc_b - instr_b) * instr_a


# -- the frontier band ---------------------------------------------------------

#: Canonical unrestricted policy: the scenario floor donor.
_UNRESTRICTED = no_restrict()


@dataclass
class _Entry:
    """Internal per-cell state of the multi-fidelity loop."""

    index: int
    cell: Cell
    bits: int
    bounds: Optional[CellBounds]
    cause: Optional[str]
    result: Optional[SimulationResult] = None
    pruned: bool = False
    #: Dynamic refinement of the analytical lower bound: once the
    #: scenario's unrestricted sibling resolves at ``v`` cycles, every
    #: restricted sibling's true end cycle is ``>= v`` (restrictions
    #: only add max-plus delays), so ``v`` tightens the floor.
    lower_floor_cycles: Optional[int] = None

    @property
    def resolved(self) -> bool:
        """True when the exact value is known (simulated or closed form)."""
        return self.result is not None or (
            self.bounds is not None and self.bounds.exact
        )

    def _point(self) -> Tuple[int, int]:
        if self.result is not None:
            return self.result.cycles, self.result.instructions
        b = self.bounds
        return b.upper_cycles, b.instructions

    @property
    def upper(self) -> Tuple[int, int]:
        """(cycles, instructions) of the best sound upper value."""
        return self._point()

    @property
    def lower(self) -> Tuple[int, int]:
        if self.result is not None:
            return self.result.cycles, self.result.instructions
        b = self.bounds
        low = b.lower_cycles
        if self.lower_floor_cycles is not None:
            low = max(low, self.lower_floor_cycles)
        return low, b.instructions


def _prune_pass(entries: List[_Entry]) -> int:
    """Mark every entry proof-dominated by a cheaper one; return count.

    ``B`` is pruned iff some ``A`` has ``bits_A <= bits_B`` and
    ``upper_A <= lower_B`` with at least one strict.  A single sweep in
    bits order with two running minima covers both strictness branches;
    already-pruned entries still prune others (the dominance chain
    grounds in a resolved cell, so transitivity is sound).
    """
    candidates = [e for e in entries if e.cause is None]
    candidates.sort(key=lambda e: e.bits)
    newly = 0
    best_lt: Optional[Tuple[int, int]] = None  # min upper, bits strictly below
    best_le: Optional[Tuple[int, int]] = None  # min upper, bits at or below
    i = 0
    while i < len(candidates):
        j = i
        while (j < len(candidates)
               and candidates[j].bits == candidates[i].bits):
            j += 1
        group = candidates[i:j]
        group_best: Optional[Tuple[int, int]] = None
        for e in group:
            up = e.upper
            if group_best is None or _stall_lt(*up, *group_best):
                group_best = up
        for e in group:
            if e.pruned or e.resolved:
                continue
            lo_c, lo_i = e.lower
            if best_lt is not None and _stall_le(*best_lt, lo_c, lo_i):
                e.pruned = True
                newly += 1
            elif _stall_lt(*group_best, lo_c, lo_i):
                # Same bits: strict value dominance is required (an
                # entry never strictly dominates itself, so including
                # its own upper in the group minimum is harmless).
                e.pruned = True
                newly += 1
        if best_le is None or _stall_lt(*group_best, *best_le):
            best_le = group_best
        best_lt = best_le
        i = j
    return newly


def _wave(entries: List[_Entry]) -> List[_Entry]:
    """The unresolved cells on the (bits, lower) staircase.

    These overlap the running frontier band no matter how the open
    intervals resolve, so they are the cells worth exact simulation
    next.  Sorted by bits; an entry joins the wave when its lower
    bound is strictly below every cheaper wave member's.
    """
    open_entries = [
        e for e in entries
        if e.cause is None and not e.resolved and not e.pruned
    ]
    open_entries.sort(key=lambda e: (e.bits, e.lower[0]))
    wave: List[_Entry] = []
    best: Optional[Tuple[int, int]] = None
    for e in open_entries:
        lo = e.lower
        if best is None or _stall_lt(*lo, *best):
            wave.append(e)
            best = lo
    return wave


@dataclass
class ScreenReport:
    """What the screening front end did to one batch of cells."""

    fidelity: str
    cells: int = 0
    exact_screened: int = 0
    interval: int = 0
    fallbacks: Dict[str, int] = field(default_factory=dict)
    pruned: int = 0
    simulated: int = 0
    waves: int = 0

    @property
    def avoided(self) -> int:
        """Cells that never reached an exact engine."""
        return self.cells - self.simulated

    @property
    def prune_rate(self) -> float:
        """Fraction of cells resolved without exact simulation."""
        return self.avoided / self.cells if self.cells else 0.0

    def describe(self) -> str:
        causes = ", ".join(
            f"{k}={v}" for k, v in sorted(self.fallbacks.items())
        ) or "none"
        return (
            f"fidelity={self.fidelity}: {self.cells} cells, "
            f"{self.exact_screened} closed-form, {self.interval} interval, "
            f"{self.pruned} pruned, {self.simulated} simulated "
            f"({self.waves} waves), fallbacks: {causes}"
        )


#: The most recent band run's report, for the CLI and tests (mirrors
#: ``repro.sim.planner.last_report``).
last_report: Optional[ScreenReport] = None


def run_band(
    cells: Sequence[Cell],
    bits: Sequence[int],
    fidelity: Optional[str] = None,
    default: str = "auto",
    workers: Optional[int] = 1,
    store=None,
) -> Tuple[List[_Entry], ScreenReport]:
    """Resolve a priced cell list at the requested fidelity.

    Returns one entry per cell (same order) carrying the bracket, the
    exact result when one was computed, and the pruned flag -- plus the
    :class:`ScreenReport`.  ``exact`` simulates everything through the
    planner (memoized store, dispatch); ``screen`` simulates
    only the unboundable cells; ``auto`` runs the running-frontier
    loop documented in the module docstring.
    """
    global last_report
    _checked_workers(workers)
    if len(bits) != len(cells):
        raise ConfigurationError(
            f"run_band needs one storage price per cell "
            f"({len(cells)} cells, {len(bits)} prices)"
        )
    fid = resolve_fidelity(fidelity, default=default)
    if fid.name == "exact":
        entries = [
            _Entry(index=i, cell=cell, bits=b, bounds=None, cause=None)
            for i, (cell, b) in enumerate(zip(cells, bits))
        ]
        results = execute_cells(list(cells), workers=workers, store=store)
        for e, r in zip(entries, results):
            e.result = r
        report = ScreenReport(fidelity="exact", cells=len(entries),
                              simulated=len(entries))
        last_report = report
        return entries, report

    screened = screen_cells(cells)
    entries = [
        _Entry(index=i, cell=s.cell, bits=b, bounds=s.bounds, cause=s.cause)
        for i, (s, b) in enumerate(zip(screened, bits))
    ]
    report = ScreenReport(fidelity=fid.name, cells=len(entries))
    for e in entries:
        if e.cause is not None:
            report.fallbacks[e.cause] = report.fallbacks.get(e.cause, 0) + 1
        elif e.bounds.exact:
            report.exact_screened += 1
        else:
            report.interval += 1

    def _simulate(batch: List[_Entry]) -> None:
        if not batch:
            return
        results = execute_cells([e.cell for e in batch], workers=workers,
                                store=store)
        for e, r in zip(batch, results):
            e.result = r
        report.simulated += len(batch)

    # Unboundable cells are exact-simulated under every fidelity.
    _simulate([e for e in entries if e.cause is not None])

    # Scenario groups: cells that differ only in policy.  Each group's
    # unrestricted member is a *floor donor* -- every structural
    # restriction is a pure max-plus delay over the unrestricted
    # machine, so its exact end cycle is a sound lower bound for all
    # its siblings, far tighter than the analytical floor when the
    # workload has non-compulsory misses.
    groups: Dict[object, List[_Entry]] = {}
    donors: Dict[object, _Entry] = {}
    for e in entries:
        workload, config, load_latency, scale = e.cell
        key = (id(workload), replace(config, policy=_UNRESTRICTED),
               load_latency, scale)
        groups.setdefault(key, []).append(e)
        if config.policy == _UNRESTRICTED:
            donors[key] = e

    def _propagate_floors() -> None:
        for key, donor in donors.items():
            if donor.result is not None:
                v_cycles = donor.result.cycles
                v_instr = donor.result.instructions
            elif donor.bounds is not None and donor.bounds.exact:
                v_cycles = donor.bounds.upper_cycles
                v_instr = donor.bounds.instructions
            else:
                continue
            for e in groups[key]:
                if e is donor or e.resolved or e.cause is not None:
                    continue
                if e.bounds.instructions != v_instr:
                    continue
                if (e.lower_floor_cycles is None
                        or v_cycles > e.lower_floor_cycles):
                    e.lower_floor_cycles = v_cycles

    if fid.name == "auto":
        first = True
        while True:
            _propagate_floors()
            _prune_pass(entries)
            wave = _wave(entries)
            if first:
                # Resolve large groups' donors up front: one exact
                # value per scenario unlocks floor-based pruning of
                # the whole price ladder above it.
                first = False
                in_wave = set(id(e) for e in wave)
                for key, donor in donors.items():
                    open_cells = sum(
                        1 for e in groups[key]
                        if e.cause is None and not e.resolved
                        and not e.pruned
                    )
                    if (open_cells > 4 and donor.cause is None
                            and not donor.resolved and not donor.pruned
                            and id(donor) not in in_wave):
                        wave.append(donor)
            if not wave:
                break
            report.waves += 1
            _simulate(wave)
    report.pruned = sum(1 for e in entries if e.pruned)

    if telemetry.enabled():
        handles = _screen_metrics()
        handles["pruned"].inc(report.pruned)
        handles["simulated"].inc(report.simulated)
        handles["frontier_overlap"].inc(
            sum(1 for e in entries
                if e.cause is None and not e.resolved and not e.pruned)
        )
    last_report = report
    return entries, report


# -- screened tables (api.sweep fidelity) --------------------------------------


@dataclass(frozen=True)
class ScreenedValue:
    """One table cell: a point value or an honest interval."""

    mcpi_low: float
    mcpi_high: float
    #: ``exact`` when the value is the true MCPI (simulated or closed
    #: form), ``screen`` when only the interval is known.
    fidelity: str
    #: How the value was obtained: a bound method from
    #: :class:`repro.sim.bounds.CellBounds`, or ``simulated``.
    method: str
    cause: Optional[str] = None

    @property
    def exact(self) -> bool:
        return self.mcpi_low == self.mcpi_high

    @property
    def width(self) -> float:
        return self.mcpi_high - self.mcpi_low

    @property
    def mcpi(self) -> float:
        """The conservative point reading: the upper bound."""
        return self.mcpi_high


@dataclass
class ScreenedTable:
    """Benchmarks x policies with per-cell fidelity (Figure 13 shape)."""

    load_latency: int
    fidelity: str
    policy_names: Tuple[str, ...]
    #: workload name -> policy name -> value.
    rows: Dict[str, Dict[str, ScreenedValue]] = field(default_factory=dict)
    report: Optional[ScreenReport] = None

    def value(self, workload: str, policy: str) -> ScreenedValue:
        return self.rows[workload][policy]

    def mcpi(self, workload: str, policy: str) -> float:
        """Conservative MCPI (exact where resolved, upper bound else)."""
        return self.rows[workload][policy].mcpi

    def bounds(self, workload: str, policy: str) -> Tuple[float, float]:
        v = self.rows[workload][policy]
        return v.mcpi_low, v.mcpi_high


def _entry_value(e: _Entry) -> ScreenedValue:
    if e.result is not None:
        mcpi = e.result.mcpi
        return ScreenedValue(mcpi, mcpi, "exact", "simulated",
                             cause=e.cause)
    b = e.bounds
    fidelity = "exact" if b.exact else "screen"
    return ScreenedValue(b.mcpi_low, b.mcpi_high, fidelity, b.method)


def run_screen_table(
    workloads: Sequence[Workload],
    policies: Sequence,
    load_latency: int = 10,
    base: Optional[MachineConfig] = None,
    scale: float = 1.0,
    workers: Optional[int] = 1,
    fidelity: str = "screen",
    store=None,
) -> ScreenedTable:
    """The screened counterpart of :func:`repro.sim.sweep.run_table`.

    ``screen`` fills every cell with its bracket (closed forms come
    back exact); ``auto`` additionally simulates the interval cells,
    so ``mcpi()`` agrees with the exact table everywhere while the
    closed-form cells never touch an engine.  Tables carry no storage
    pricing, so no cell is ever pruned here.
    """
    _checked_workers(workers)
    _require_unique_names("workloads", workloads)
    _require_unique_names("policies", policies)
    if base is None:
        base = baseline_config()
    fid = get_fidelity(fidelity)
    if fid.name == "exact":
        raise ConfigurationError(
            "run_screen_table is the screen/auto path; "
            "use repro.sim.sweep.run_table for exact sweeps"
        )
    cells: List[Cell] = [
        (workload, base.with_policy(policy), load_latency, scale)
        for workload in workloads
        for policy in policies
    ]
    screened = screen_cells(cells)
    entries = [
        _Entry(index=i, cell=s.cell, bits=0, bounds=s.bounds, cause=s.cause)
        for i, s in enumerate(screened)
    ]
    report = ScreenReport(fidelity=fid.name, cells=len(entries))
    for e in entries:
        if e.cause is not None:
            report.fallbacks[e.cause] = report.fallbacks.get(e.cause, 0) + 1
        elif e.bounds.exact:
            report.exact_screened += 1
        else:
            report.interval += 1
    to_run = [e for e in entries if e.cause is not None]
    if fid.name == "auto":
        to_run += [
            e for e in entries if e.cause is None and not e.bounds.exact
        ]
    if to_run:
        results = execute_cells([e.cell for e in to_run], workers=workers,
                                store=store)
        for e, r in zip(to_run, results):
            e.result = r
        report.simulated += len(to_run)
    if telemetry.enabled():
        _screen_metrics()["simulated"].inc(report.simulated)

    global last_report
    last_report = report
    table = ScreenedTable(
        load_latency=load_latency,
        fidelity=fid.name,
        policy_names=tuple(p.name for p in policies),
        report=report,
    )
    index = 0
    for workload in workloads:
        row: Dict[str, ScreenedValue] = {}
        for policy in policies:
            row[policy.name] = _entry_value(entries[index])
            index += 1
        table.rows[workload.name] = row
    return table
