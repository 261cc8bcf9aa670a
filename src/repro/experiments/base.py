"""Experiment framework: each paper figure/table is one experiment.

An :class:`Experiment` pairs an id ("fig5", "fig13", ...) with a
runner that regenerates the figure's data.  Runners take an
:class:`ExperimentOptions` (run scale, pool size, benchmark override,
...) and return an :class:`ExperimentResult` holding both the
structured rows and a rendered text table, plus paper-reference notes.

Options are validated *here*, not swallowed by ``**kwargs``: a typo'd
option name raises :class:`~repro.errors.ExperimentError` with a
did-you-mean hint instead of silently running the default
configuration.  Every run is wrapped in a telemetry ``experiment``
span, so per-experiment wall time lands in ``python -m repro
telemetry summary``, and an optional progress callback feeds the
``--progress`` stderr line of ``python -m repro.experiments all``.

Run from the command line::

    python -m repro.experiments fig13 --scale 1.0
    python -m repro.experiments all --progress
"""

from __future__ import annotations

import csv
import difflib
import os
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro import telemetry
from repro.analysis.tables import format_table
from repro.errors import ExperimentError


@dataclass
class ExperimentResult:
    """The regenerated data for one figure or table."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    #: Free-form commentary: what the paper reported, caveats.
    notes: str = ""
    #: Optional extra rendered sections (e.g. a second table).
    extra_text: str = ""

    def render(self, precision: int = 3) -> str:
        """Full text rendering: title, table, notes."""
        parts = [
            format_table(self.headers, self.rows, precision=precision,
                         title=f"[{self.experiment_id}] {self.title}")
        ]
        if self.extra_text:
            parts.append(self.extra_text)
        if self.notes:
            parts.append(self.notes)
        return "\n\n".join(parts)

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the structured rows as a CSV file and return its path.

        Downstream plotting/analysis wants data files, not rendered
        tables; the header row is the experiment's column headers.
        """
        target = Path(path)
        if target.is_dir():
            target = target / f"{self.experiment_id}.csv"
        with open(target, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(self.headers))
            for row in self.rows:
                writer.writerow(list(row))
        return target


#: ``progress(experiment_id, event, elapsed_seconds)`` where ``event``
#: is ``"start"``, ``"done"``, or ``"error"``.
ProgressCallback = Callable[[str, str, float], None]


@dataclass
class ExperimentOptions:
    """Every option an experiment runner accepts, validated up front.

    The old ``runner(scale=..., **_kwargs)`` convention silently
    swallowed typos (``workres=4`` ran a serial sweep without a word);
    this dataclass is the complete vocabulary, and
    :meth:`from_kwargs` rejects anything else with a did-you-mean
    hint.  Fields defaulting to ``None`` mean "use the experiment's
    own default" -- e.g. ``benchmark`` is doduc for fig6 but tomcatv
    for fig18, so the resolution happens in the driver via
    :meth:`resolved_benchmark`.
    """

    #: Run-length multiplier (1.0 = the paper-calibrated length).
    scale: float = 1.0
    #: Process-pool size for the sweeps behind the figure (1 = serial).
    #: Pools are persistent and process-wide: consecutive experiments
    #: at the same size reuse one warm pool (see ``docs/performance.md``,
    #: "Pool lifecycle"); ``repro.api.shutdown_pool()``
    #: retires it explicitly.
    workers: Optional[int] = 1
    #: Benchmark override for single-benchmark figures.
    benchmark: Optional[str] = None
    #: Scheduled load latency override for single-latency figures.
    load_latency: Optional[int] = None
    #: Miss penalty override (fig19's scaling study).
    miss_penalty: Optional[int] = None
    #: Serve repeated cells from the on-disk result store.
    cache: bool = True
    #: Record metrics/spans for this run (see ``docs/observability.md``).
    telemetry: bool = True
    #: Progress notifications (the ``--progress`` stderr line).
    progress: Optional[ProgressCallback] = None

    @classmethod
    def option_names(cls) -> List[str]:
        return [f.name for f in dataclass_fields(cls)]

    @classmethod
    def from_kwargs(cls, **kwargs) -> "ExperimentOptions":
        """Build options from keywords; unknown names raise with a hint."""
        known = cls.option_names()
        for name in kwargs:
            if name not in known:
                hint = difflib.get_close_matches(name, known, n=1)
                suggestion = f"; did you mean '{hint[0]}'?" if hint else ""
                raise ExperimentError(
                    f"unknown experiment option '{name}'{suggestion} "
                    f"(known options: {', '.join(known)})"
                )
        options = cls(**kwargs)
        options.validate()
        return options

    def validate(self) -> None:
        if not self.scale > 0:
            raise ExperimentError(f"scale must be positive: {self.scale}")
        if self.workers is not None and self.workers < 1:
            raise ExperimentError(f"workers must be >= 1: {self.workers}")
        if self.load_latency is not None and self.load_latency < 1:
            raise ExperimentError(
                f"load_latency must be >= 1: {self.load_latency}"
            )
        if self.miss_penalty is not None and self.miss_penalty < 1:
            raise ExperimentError(
                f"miss_penalty must be >= 1: {self.miss_penalty}"
            )

    # -- per-driver defaults -------------------------------------------------

    def resolved_benchmark(self, default: str) -> str:
        return self.benchmark if self.benchmark is not None else default

    def resolved_latency(self, default: int = 10) -> int:
        return (self.load_latency if self.load_latency is not None
                else default)

    def resolved_penalty(self, default: int = 16) -> int:
        return (self.miss_penalty if self.miss_penalty is not None
                else default)


@dataclass(frozen=True)
class Experiment:
    """A registered, runnable reproduction of one paper artifact."""

    experiment_id: str
    title: str
    paper_reference: str
    runner: Callable[[ExperimentOptions], ExperimentResult]

    def run(
        self,
        scale: Optional[float] = None,
        options: Optional[ExperimentOptions] = None,
        **kwargs,
    ) -> ExperimentResult:
        """Regenerate the figure's data.

        Either pass a prebuilt :class:`ExperimentOptions` or the same
        fields as keywords (``run(scale=0.5, workers=4)``); unknown
        keywords raise :class:`ExperimentError` with a did-you-mean
        hint.  The run is wrapped in an ``experiment.<id>`` telemetry
        span and counted under ``experiment.runs``.
        """
        if options is None:
            merged = dict(kwargs)
            if scale is not None:
                merged["scale"] = scale
            options = ExperimentOptions.from_kwargs(**merged)
        else:
            if kwargs or scale is not None:
                raise ExperimentError(
                    "pass either a prebuilt options object or keyword "
                    "options, not both"
                )
            options.validate()

        saved_cache = os.environ.get("REPRO_CACHE")
        telemetry_forced_off = not options.telemetry and telemetry.enabled()
        start = time.perf_counter()
        if options.progress is not None:
            options.progress(self.experiment_id, "start", 0.0)
        try:
            if not options.cache:
                os.environ["REPRO_CACHE"] = "0"
            if telemetry_forced_off:
                telemetry.set_enabled(False)
            with telemetry.span(f"experiment.{self.experiment_id}",
                                scale=options.scale):
                result = self.runner(options)
        except BaseException:
            if options.progress is not None:
                options.progress(self.experiment_id, "error",
                                 time.perf_counter() - start)
            raise
        finally:
            if telemetry_forced_off:
                telemetry.set_enabled(None)
            if not options.cache:
                if saved_cache is None:
                    os.environ.pop("REPRO_CACHE", None)
                else:
                    os.environ["REPRO_CACHE"] = saved_cache
        elapsed = time.perf_counter() - start
        if options.telemetry and telemetry.enabled():
            telemetry.counter("experiment.runs").inc()
        if options.progress is not None:
            options.progress(self.experiment_id, "done", elapsed)
        return result


_REGISTRY: Dict[str, Experiment] = {}


_Runner = Callable[[ExperimentOptions], ExperimentResult]


def register(
    experiment_id: str, title: str, paper_reference: str
) -> Callable[[_Runner], _Runner]:
    """Decorator registering a runner under an experiment id.

    Runners take exactly one argument, the validated
    :class:`ExperimentOptions`.
    """

    def wrap(fn: _Runner) -> _Runner:
        if experiment_id in _REGISTRY:
            raise ExperimentError(f"duplicate experiment id: {experiment_id}")
        _REGISTRY[experiment_id] = Experiment(
            experiment_id=experiment_id,
            title=title,
            paper_reference=paper_reference,
            runner=fn,
        )
        return fn

    return wrap


def get_experiment(experiment_id: str) -> Experiment:
    """Look up a registered experiment by id."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ExperimentError(
            f"unknown experiment '{experiment_id}'; known: {known}"
        ) from None


def all_experiments() -> List[Experiment]:
    """All registered experiments, sorted by id."""
    def key(e: Experiment):
        ident = e.experiment_id
        if ident.startswith("fig"):
            tail = ident[3:]
            if tail.isdigit():
                return (0, int(tail), ident)
        return (1, 0, ident)

    return sorted(_REGISTRY.values(), key=key)
