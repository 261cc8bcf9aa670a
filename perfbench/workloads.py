"""The benchmark's workloads: what one pass runs and how it is checked.

A pass is a closed loop: one caller runs the workload's operations one
after another, each starting when the previous one returned.  An
operation is one experiment (``paper``) or one design scenario
(``design-auto``).  Its output is reduced to plain tuples so
that outputs of different passes, processes and commits compare with
``==`` and digest stably.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
from typing import Dict, List, Optional, Tuple

#: The models' own seed (``repro.workloads.workload.Workload.seed``).
DEFAULT_SEED = 1994


def canonical(value):
    """Plain, hashable form of an output: ints, floats, strings, tuples."""
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()[:16]


def golden_failures(outputs: Dict[str, object], golden: Dict[str, str]
                    ) -> List[str]:
    """Operations that raised or whose digest differs from the golden one."""
    return [op for op, out in outputs.items()
            if isinstance(out, Exception) or golden.get(op) != digest(out)]


def fig13_fidelity(ours: Dict[str, Dict[str, float]]) -> Tuple[float, int, int]:
    """(mean |log2(ours/paper)|, orderings compared, orderings violated).

    The formulas of ``tools/compare_fig13.py``: every cell where both
    values are positive counts toward the error; every column pair
    whose paper values differ by more than 0.005 is an ordering, and
    it is violated when ours sorts the other way.
    """
    from repro.experiments.fig13 import TABLE_COLUMNS
    from repro.workloads.spec92 import BENCHMARK_ORDER, PAPER_FIG13

    errors: List[float] = []
    compared = violated = 0
    for bench in BENCHMARK_ORDER:
        mine, paper = ours[bench], PAPER_FIG13[bench]
        for col in TABLE_COLUMNS:
            if mine[col] > 0 and paper[col] > 0:
                errors.append(abs(math.log2(mine[col] / paper[col])))
        for i, a in enumerate(TABLE_COLUMNS):
            for b in TABLE_COLUMNS[i + 1:]:
                paper_cmp = paper[a] - paper[b]
                if abs(paper_cmp) > 0.005:
                    compared += 1
                    if paper_cmp * (mine[a] - mine[b]) < 0:
                        violated += 1
    return sum(errors) / len(errors), compared, violated


class Paper:
    """Every registered experiment at scale 1.0, rows rendered."""

    seeded = False
    golden_key = "paper"
    warm_per_round = 2
    #: Workers of the traced run's pool pass (``nproc`` of the reference
    #: host); every timed pass dispatches inline with ``workers=1``.
    POOL_WORKERS = 2

    def __init__(self) -> None:
        self.fig13 = None

    def _run(self, scale: float, workers: int = 1) -> Dict[str, object]:
        from repro.experiments import all_experiments
        from repro.experiments.base import ExperimentOptions

        outputs: Dict[str, object] = {}
        for exp in all_experiments():
            try:
                result = exp.run(options=ExperimentOptions(
                    scale=scale, workers=workers))
                result.render()
                outputs[exp.experiment_id] = canonical(result.rows)
            except Exception as exc:  # counted as a failed operation
                outputs[exp.experiment_id] = exc
                continue
            if exp.experiment_id == "fig13" and self.fig13 is None:
                self.fig13 = result
        return outputs

    def warm_up(self) -> None:
        """Tiny-scale pass: finishes lazy imports and builds the kernels."""
        self._run(0.02)
        self.fig13 = None

    def run_pass(self, workers: int = 1) -> Dict[str, object]:
        return self._run(1.0, workers)

    def check(self, outputs: Dict[str, object], golden: Dict[str, str]
              ) -> List[str]:
        return golden_failures(outputs, golden)

    def fidelity(self) -> Tuple[float, int, int]:
        """Fig 13 fit, from the first cold pass's fig13 rows."""
        from repro.experiments.fig13 import TABLE_COLUMNS

        headers = list(self.fig13.headers)
        index = {col: headers.index(f"{col} mcpi")
                 for col in TABLE_COLUMNS[:-1]}
        index["no restrict"] = headers.index("inf mcpi")
        ours = {row[0]: {col: float(row[i]) for col, i in index.items()}
                for row in self.fig13.rows}
        return fig13_fidelity(ours)


class DesignAuto:
    """``evaluate_designs`` over all 18 models x cache sizes x latencies."""

    seeded = True
    golden_key = "design-auto"
    warm_per_round = 1
    #: No pool pass: every sweep of this workload dispatches inline.
    POOL_WORKERS = 0
    SIZES_KB = (8, 64, 256)
    LATENCIES = (3, 10, 20)

    def __init__(self, seed: int) -> None:
        from repro.cache.geometry import CacheGeometry
        from repro.sim.config import MachineConfig
        from repro.workloads.spec92 import all_benchmarks

        self.seed = seed
        self.models = [dataclasses.replace(w, seed=seed)
                       for w in all_benchmarks()]
        self.scenarios = [
            (f"{w.name}@{kb}KB/lat{lat}", w,
             MachineConfig(geometry=CacheGeometry(size=kb * 1024)), lat)
            for w in self.models
            for kb in self.SIZES_KB
            for lat in self.LATENCIES
        ]
        self._exact: Optional[Dict[str, tuple]] = None

    def _evaluate(self, fidelity: Optional[str], **kwargs
                  ) -> Dict[str, object]:
        from repro.analysis.designspace import (
            evaluate_designs,
            pareto_frontier,
        )

        outputs: Dict[str, object] = {}
        for op, workload, base, latency in self.scenarios:
            try:
                points = evaluate_designs(workload, base=base,
                                          load_latency=latency,
                                          fidelity=fidelity, workers=1,
                                          **kwargs)
                outputs[op] = canonical((
                    [(p.description, p.storage_bits, p.mcpi, p.mcpi_low,
                      p.mcpi_high, p.fidelity) for p in points],
                    [(p.description, p.storage_bits, p.mcpi)
                     for p in pareto_frontier(points)],
                ))
            except Exception as exc:  # counted as a failed operation
                outputs[op] = exc
        return outputs

    def warm_up(self) -> None:
        self._evaluate(None, scale=0.02)

    def run_pass(self, workers: int = 1) -> Dict[str, object]:
        """One search; ``workers`` is always 1 (``POOL_WORKERS`` is 0)."""
        return self._evaluate(None)

    def check(self, outputs: Dict[str, object], golden: Dict[str, str]
              ) -> List[str]:
        """Ids of the scenarios whose points are wrong.

        At the default seed the points must match the golden digests.
        At any other seed they are checked against an untimed exact
        run: the same Pareto frontier, exact points equal, and every
        screened bracket containing the exact value.
        """
        if self.seed == DEFAULT_SEED:
            return golden_failures(outputs, golden)
        if self._exact is None:
            self._exact = self._evaluate("exact")
        return [op for op, out in outputs.items()
                if not _sound(out, self._exact[op])]

    def fidelity(self) -> Tuple[float, int, int]:
        """Fig 13 fit of the re-seeded models this search used (untimed)."""
        from repro.core.policies import table13_policies
        from repro.experiments.fig13 import TABLE_COLUMNS
        from repro.sim.sweep import run_table

        table = run_table(self.models, table13_policies(), load_latency=10,
                          scale=1.0, workers=1)
        ours = {w.name: {col: table.mcpi(w.name, col)
                         for col in TABLE_COLUMNS} for w in self.models}
        return fig13_fidelity(ours)


def _sound(out, exact) -> bool:
    """Same frontier as the exact run, and no point contradicts it."""
    if isinstance(out, Exception) or isinstance(exact, Exception):
        return False
    points, frontier = out
    exact_points, exact_frontier = exact
    if frontier != exact_frontier:
        return False
    for (_desc, _bits, mcpi, low, high, fidelity), ref in zip(
            points, exact_points):
        true = ref[2]
        if (fidelity == "exact" and mcpi != true) or not low <= true <= high:
            return False
    return True


WORKLOADS = {
    "paper": lambda seed: Paper(),
    "design-auto": DesignAuto,
}
