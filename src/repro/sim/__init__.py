"""Simulation layer: configs, trace expansion, execution, sweeps.

Programmatic use should go through the stable facade
:mod:`repro.api`; the names here are internal plumbing that may move
between releases (the export smoke test in
``tests/sim/test_exports.py`` pins `__all__` to reality).
"""

from repro.sim.config import MachineConfig, baseline_config
from repro.sim.confidence import ReplicationSummary, replicate
from repro.sim.planner import (
    PlanReport,
    cached_simulate,
    execute_cells,
    run_plan,
)
from repro.sim.resultstore import ResultStore, cell_fingerprint
from repro.sim.simulator import (
    ENGINE_VERSION,
    clear_caches,
    compile_workload,
    expand_workload,
    simulate,
)
from repro.sim.stats import SimulationResult
from repro.sim.sweep import (
    PAPER_LATENCIES,
    CurveSweep,
    TableSweep,
    run_curves,
    run_penalty_sweep,
    run_table,
)
from repro.sim.trace import ExpandedTrace, expand
from repro.sim.tracelog import (
    AccessRecord,
    TracingHandler,
    format_access_log,
    record_accesses,
)

__all__ = [
    "MachineConfig",
    "baseline_config",
    "simulate",
    "compile_workload",
    "expand_workload",
    "clear_caches",
    "SimulationResult",
    "PAPER_LATENCIES",
    "CurveSweep",
    "TableSweep",
    "run_curves",
    "run_table",
    "run_penalty_sweep",
    "ExpandedTrace",
    "expand",
    "ReplicationSummary",
    "replicate",
    "PlanReport",
    "cached_simulate",
    "execute_cells",
    "run_plan",
    "ResultStore",
    "cell_fingerprint",
    "ENGINE_VERSION",
    "AccessRecord",
    "TracingHandler",
    "record_accesses",
    "format_access_log",
]
