"""ExperimentOptions: validated vocabulary instead of ``**kwargs``."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.errors import ExperimentError, ReproError
from repro.experiments import get_experiment
from repro.experiments.base import ExperimentOptions


class TestFromKwargs:
    def test_defaults(self):
        options = ExperimentOptions.from_kwargs()
        assert options.scale == 1.0
        assert options.workers == 1
        assert options.benchmark is None
        assert options.cache is True
        assert options.telemetry is True

    def test_known_options_accepted(self):
        options = ExperimentOptions.from_kwargs(
            scale=0.5, workers=4, benchmark="tomcatv", load_latency=20
        )
        assert options.scale == 0.5
        assert options.workers == 4
        assert options.benchmark == "tomcatv"
        assert options.load_latency == 20

    def test_unknown_option_raises_with_did_you_mean(self):
        with pytest.raises(ExperimentError,
                           match="unknown experiment option 'workres'"):
            ExperimentOptions.from_kwargs(workres=4)
        with pytest.raises(ExperimentError, match="did you mean 'workers'"):
            ExperimentOptions.from_kwargs(workres=4)

    def test_backend_is_not_an_option(self):
        # Sweeps dispatch on their worker count alone.
        with pytest.raises(ExperimentError,
                           match="unknown experiment option 'backend'"):
            ExperimentOptions.from_kwargs(**{"backend": "inline"})

    def test_unknown_option_lists_vocabulary(self):
        with pytest.raises(ExperimentError, match="known options:.*scale"):
            ExperimentOptions.from_kwargs(zzz=1)

    @pytest.mark.parametrize("kwargs,message", [
        ({"scale": 0}, "scale must be positive"),
        ({"scale": -1}, "scale must be positive"),
        ({"workers": 0}, "workers must be >= 1"),
        ({"load_latency": 0}, "load_latency must be >= 1"),
        ({"miss_penalty": 0}, "miss_penalty must be >= 1"),
    ])
    def test_validation_errors(self, kwargs, message):
        with pytest.raises(ExperimentError, match=message):
            ExperimentOptions.from_kwargs(**kwargs)

    def test_resolved_defaults(self):
        options = ExperimentOptions()
        assert options.resolved_benchmark("doduc") == "doduc"
        assert options.resolved_latency() == 10
        assert options.resolved_penalty() == 16
        overridden = ExperimentOptions(benchmark="su2cor", load_latency=40,
                                       miss_penalty=32)
        assert overridden.resolved_benchmark("doduc") == "su2cor"
        assert overridden.resolved_latency() == 40
        assert overridden.resolved_penalty() == 32


class TestExperimentRun:
    def test_run_rejects_unknown_kwarg(self):
        exp = get_experiment("costs")
        with pytest.raises(ExperimentError, match="did you mean 'scale'"):
            exp.run(scal=0.05)

    def test_run_rejects_options_plus_kwargs(self):
        exp = get_experiment("costs")
        with pytest.raises(ExperimentError, match="not both"):
            exp.run(scale=0.05, options=ExperimentOptions())

    def test_run_accepts_prebuilt_options(self):
        exp = get_experiment("costs")
        result = exp.run(options=ExperimentOptions(scale=0.05))
        assert result.experiment_id == "costs"

    def test_benchmark_override_changes_the_run(self):
        exp = get_experiment("fig6")
        default = exp.run(options=ExperimentOptions(scale=0.05))
        overridden = exp.run(
            options=ExperimentOptions(scale=0.05, benchmark="tomcatv"))
        assert default.rows != overridden.rows

    def test_progress_callback_sequence(self):
        events = []

        def progress(experiment_id, event, elapsed):
            events.append((experiment_id, event))

        exp = get_experiment("costs")
        exp.run(options=ExperimentOptions(scale=0.05, progress=progress))
        assert events == [("costs", "start"), ("costs", "done")]

    def test_progress_callback_reports_errors(self):
        events = []

        def progress(experiment_id, event, elapsed):
            events.append(event)

        exp = get_experiment("fig6")
        with pytest.raises(ReproError):
            exp.run(options=ExperimentOptions(
                scale=0.05, benchmark="not-a-benchmark", progress=progress))
        assert events == ["start", "error"]

    def test_run_records_experiment_telemetry(self):
        exp = get_experiment("costs")
        exp.run(options=ExperimentOptions(scale=0.05))
        assert telemetry.metrics().get("experiment.runs").value >= 1
        span = telemetry.metrics().get("span.experiment.costs.seconds")
        assert span is not None and span.count >= 1

    def test_telemetry_opt_out_records_nothing(self):
        exp = get_experiment("costs")
        exp.run(options=ExperimentOptions(scale=0.05, telemetry=False))
        assert telemetry.metrics().get("experiment.runs") is None
        assert telemetry.enabled()  # restored afterwards
