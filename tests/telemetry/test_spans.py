"""Span tracing: nesting, JSONL schema, chrome-trace export."""

from __future__ import annotations

import json
import os

import pytest

from repro import telemetry
from repro.telemetry.spans import (
    REQUIRED_EVENT_KEYS,
    current_span,
    export_chrome_trace,
    validate_trace_file,
    validate_trace_line,
)


class TestSpanMetrics:
    def test_span_records_duration_histogram(self):
        with telemetry.span("unit_test_phase"):
            pass
        hist = telemetry.metrics().get("span.unit_test_phase.seconds")
        assert hist is not None
        assert hist.count == 1
        assert hist.sum >= 0

    def test_nested_spans_track_current(self):
        assert current_span() is None
        with telemetry.span("outer"):
            assert current_span() == "outer"
            with telemetry.span("inner"):
                assert current_span() == "inner"
            assert current_span() == "outer"
        assert current_span() is None

    def test_span_stack_unwinds_on_exception(self):
        with pytest.raises(RuntimeError):
            with telemetry.span("doomed"):
                raise RuntimeError("boom")
        assert current_span() is None
        # the duration is still recorded
        assert telemetry.metrics().get("span.doomed.seconds").count == 1

    def test_disabled_telemetry_records_nothing(self):
        telemetry.set_enabled(False)
        try:
            with telemetry.span("ghost") as args:
                assert args == {}
                assert current_span() is None
        finally:
            telemetry.set_enabled(None)
        assert telemetry.metrics().get("span.ghost.seconds") is None

    def test_span_yields_args_for_late_attributes(self):
        with telemetry.span("late", cells=3) as args:
            args["simulated"] = 2
        assert args == {"cells": 3, "simulated": 2}


class TestTraceSink:
    def test_span_writes_valid_jsonl_events(self, tmp_path, monkeypatch):
        trace = tmp_path / "trace.jsonl"
        monkeypatch.setenv(telemetry.TRACE_FILE_ENV, str(trace))
        telemetry.set_enabled(None)  # the sink is read once
        with telemetry.span("outer", benchmark="doduc"):
            with telemetry.span("inner"):
                pass
        monkeypatch.delenv(telemetry.TRACE_FILE_ENV)

        lines = trace.read_text().splitlines()
        assert len(lines) == 2
        events = [validate_trace_line(line) for line in lines]
        # inner closes first, so it is the first line
        inner, outer = events
        assert inner["name"] == "inner"
        assert inner["args"]["_parent"] == "outer"
        assert outer["name"] == "outer"
        assert outer["args"] == {"benchmark": "doduc"}
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == os.getpid()
            assert set(REQUIRED_EVENT_KEYS) <= set(event)

    def test_validate_trace_file_counts_events(self, tmp_path, monkeypatch):
        trace = tmp_path / "trace.jsonl"
        monkeypatch.setenv(telemetry.TRACE_FILE_ENV, str(trace))
        telemetry.set_enabled(None)  # the sink is read once
        for _ in range(3):
            with telemetry.span("tick"):
                pass
        monkeypatch.delenv(telemetry.TRACE_FILE_ENV)
        assert validate_trace_file(trace) == 3

    def test_validate_rejects_malformed_lines(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"name": "x"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            validate_trace_file(bad)

    @pytest.mark.parametrize("line,message", [
        ("[1,2]", "not an object"),
        (json.dumps({"name": "", "cat": "c", "ph": "X", "ts": 0, "dur": 0,
                     "pid": 1, "tid": 1, "args": {}}), "non-empty string"),
        (json.dumps({"name": "x", "cat": "c", "ph": "B", "ts": 0, "dur": 0,
                     "pid": 1, "tid": 1, "args": {}}), "unsupported phase"),
        (json.dumps({"name": "x", "cat": "c", "ph": "X", "ts": -1, "dur": 0,
                     "pid": 1, "tid": 1, "args": {}}), "non-negative"),
        (json.dumps({"name": "x", "cat": "c", "ph": "X", "ts": 0, "dur": 0,
                     "pid": 1, "tid": 1, "args": []}), "args must be"),
    ])
    def test_validate_line_errors(self, line, message):
        with pytest.raises(ValueError, match=message):
            validate_trace_line(line)

    def test_export_chrome_trace_roundtrip(self, tmp_path, monkeypatch):
        trace = tmp_path / "trace.jsonl"
        out = tmp_path / "trace.json"
        monkeypatch.setenv(telemetry.TRACE_FILE_ENV, str(trace))
        telemetry.set_enabled(None)  # the sink is read once
        with telemetry.span("phase", k="v"):
            pass
        monkeypatch.delenv(telemetry.TRACE_FILE_ENV)

        written = export_chrome_trace(trace, out)
        assert written == 1
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["traceEvents"][0]["name"] == "phase"
        assert doc["traceEvents"][0]["args"] == {"k": "v"}

    def test_no_sink_without_env(self, tmp_path):
        # REPRO_TRACE_FILE is cleared by the conftest fixture
        with telemetry.span("untraced"):
            pass
        assert not list(tmp_path.glob("*.jsonl"))
