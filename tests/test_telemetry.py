"""Telemetry subsystem: tracer semantics, persistence, wire and export paths.

Covers the ISSUE-6 checklist: span nesting and exception safety, the
off-by-default zero-allocation fast path, wire round-trips of worker
telemetry frames, Chrome-trace JSON schema validation, and store
round-trips that tolerate pre-telemetry index entries.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.campaign import ArtifactStore, ensure_builtin_scenarios, plan_campaign, run_cell
from repro.campaign.dist.protocol import Channel
from repro.telemetry import (
    NULL_SPAN,
    TELEMETRY,
    Metrics,
    Tracer,
    capture,
    disable,
    enable,
    env_enabled,
    get_logger,
    log_event,
    reset_logging,
    set_instrumentation,
    snapshot_of,
    timed,
)
from repro.telemetry.core import MAX_EVENTS
from repro.telemetry.probes import PROBES, disable_probes, enable_probes
from repro.telemetry.export import (
    chrome_trace,
    trace_categories,
    validate_trace,
    write_chrome_trace,
)


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    disable()
    yield
    disable()


def _spec(store_seed: int = 0):
    ensure_builtin_scenarios()
    plan = plan_campaign(
        ["pingpong-placement"],
        scale="smoke",
        overrides={"message_kib": [4], "noise": ["none"], "placement": ["inter-nodes"]},
        backend="flow",
    )
    return plan.specs[0]


# -- tracer semantics ---------------------------------------------------------------


class TestTracer:
    def test_span_nesting_records_both_levels(self):
        enable()
        with TELEMETRY.tracer.span("outer", cat="test"):
            with TELEMETRY.tracer.span("inner", cat="test", depth=2):
                pass
        names = [ev["name"] for ev in TELEMETRY.tracer.events]
        assert names == ["inner", "outer"]  # inner closes (and records) first
        outer = TELEMETRY.tracer.events[1]
        inner = TELEMETRY.tracer.events[0]
        assert inner["args"]["depth"] == 2
        # The inner span lies within the outer span's interval.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6

    def test_span_exception_safety(self):
        enable()
        with pytest.raises(ValueError):
            with TELEMETRY.tracer.span("boom", cat="test"):
                raise ValueError("expected")
        (event,) = TELEMETRY.tracer.events
        assert event["name"] == "boom"
        assert event["args"]["error"] == "ValueError"
        assert TELEMETRY.tracer.aggregates["boom"][0] == 1

    def test_span_add_merges_args(self):
        enable()
        with TELEMETRY.tracer.span("s", cat="test", a=1) as sp:
            sp.add(b=2)
        (event,) = TELEMETRY.tracer.events
        assert event["args"] == {"a": 1, "b": 2}

    def test_event_cap_keeps_aggregates_counting(self):
        tracer = Tracer(max_events=4)
        for _ in range(10):
            with tracer.span("tick", cat="test"):
                pass
        assert len(tracer.events) == 4
        assert tracer.dropped == 6
        assert tracer.aggregates["tick"][0] == 10

    def test_default_event_cap(self):
        assert Tracer().max_events == MAX_EVENTS

    def test_metrics_counters_gauges_histograms(self):
        metrics = Metrics()
        metrics.incr("n")
        metrics.incr("n", 4)
        metrics.gauge("depth", 7.0)
        for value in (1.0, 3.0, 2.0):
            metrics.observe("lat", value)
        assert metrics.counters["n"] == 5
        assert metrics.gauges["depth"] == 7.0
        hist = metrics.histograms["lat"]
        assert hist["count"] == 3 and hist["min"] == 1.0 and hist["max"] == 3.0

    def test_snapshot_shape(self):
        enable()
        with timed("simulate"):
            time.sleep(0.001)
        with timed("report"):
            pass
        snapshot = snapshot_of(TELEMETRY.tracer, TELEMETRY.metrics)
        assert set(snapshot["phases"]) == {"simulate", "report"}
        assert snapshot["sim_s"] == snapshot["phases"]["simulate"]
        assert snapshot["spans"]["simulate"]["count"] == 1
        assert snapshot["dropped"] == 0
        json.dumps(snapshot)  # must be JSON-safe as-is


class TestDisabledFastPath:
    def test_span_returns_shared_null_singleton(self):
        assert TELEMETRY.enabled is False
        first = TELEMETRY.tracer.span("hot", cat="test", x=1)
        second = TELEMETRY.tracer.span("hot2", cat="test")
        assert first is NULL_SPAN and second is NULL_SPAN  # zero allocation

    def test_null_span_is_inert(self):
        with TELEMETRY.tracer.span("hot") as sp:
            sp.add(anything=1)
        with pytest.raises(RuntimeError):
            with TELEMETRY.tracer.span("hot"):
                raise RuntimeError("propagates")

    def test_metrics_noop(self):
        TELEMETRY.metrics.incr("n")
        TELEMETRY.metrics.gauge("g", 1.0)
        TELEMETRY.metrics.observe("h", 1.0)  # nothing raises, nothing stored

    def test_capture_snapshot_is_none(self):
        with capture() as cap:
            pass
        assert cap.snapshot() is None

    def test_timed_still_measures(self):
        with timed("simulate") as t:
            time.sleep(0.002)
        assert t.elapsed >= 0.002

    def test_singleton_identity_is_stable_across_toggles(self):
        before = TELEMETRY
        enable()
        assert TELEMETRY is before and TELEMETRY.enabled
        disable()
        assert TELEMETRY is before and not TELEMETRY.enabled

    def test_env_enabled_parsing(self):
        assert env_enabled({"REPRO_TELEMETRY": "1"})
        assert env_enabled({"REPRO_TELEMETRY": "yes"})
        assert not env_enabled({"REPRO_TELEMETRY": "0"})
        assert not env_enabled({"REPRO_TELEMETRY": "off"})
        assert not env_enabled({})

    def test_env_var_activates_fresh_interpreter(self):
        code = "from repro.telemetry import TELEMETRY; print(TELEMETRY.enabled)"
        env = dict(os.environ, REPRO_TELEMETRY="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), str(_repo_src())) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.stdout.strip() == "True"


def _repo_src():
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestCapture:
    def test_capture_scopes_and_restores(self):
        enable()
        outer_tracer = TELEMETRY.tracer
        with TELEMETRY.tracer.span("before", cat="test"):
            pass
        with capture() as cap:
            assert TELEMETRY.tracer is not outer_tracer
            with timed("simulate"):
                pass
        assert TELEMETRY.tracer is outer_tracer
        snapshot = cap.snapshot()
        assert "simulate" in snapshot["phases"]
        assert "before" not in snapshot["spans"]

    def test_captures_nest(self):
        enable()
        with capture() as outer:
            with timed("audit"):
                with capture() as inner:
                    with timed("simulate"):
                        pass
            inner_snapshot = inner.snapshot()
        outer_snapshot = outer.snapshot()
        assert "simulate" in inner_snapshot["phases"]
        assert "simulate" not in outer_snapshot["phases"]
        assert "audit" in outer_snapshot["phases"]

    def test_capture_scopes_the_probe_recorder_too(self):
        enable_probes()
        try:
            outer_recorder = PROBES.recorder
            with capture() as cap:
                assert PROBES.recorder is not outer_recorder
                PROBES.recorder.want_decision()
            assert PROBES.recorder is outer_recorder
            assert outer_recorder.decisions_seen == 0
            assert cap.probe_snapshot()["decisions_seen"] == 1
            assert cap.snapshot() is None  # telemetry stayed off
        finally:
            disable_probes()


class TestSwitch:
    """set_instrumentation: the one switch for tracing and probes."""

    @pytest.fixture(autouse=True)
    def _switches_restored(self, monkeypatch):
        # The switch writes the environment; setenv makes monkeypatch put
        # the original values back afterwards.
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        monkeypatch.setenv("REPRO_PROBES", "0")
        yield
        disable_probes()

    def test_turns_both_on_and_off(self):
        set_instrumentation(True, True)
        assert TELEMETRY.enabled and PROBES.enabled
        assert os.environ["REPRO_TELEMETRY"] == os.environ["REPRO_PROBES"] == "1"
        set_instrumentation(False, True)
        assert not TELEMETRY.enabled and PROBES.enabled
        set_instrumentation(False, False)
        assert not TELEMETRY.enabled and not PROBES.enabled
        assert os.environ["REPRO_TELEMETRY"] == os.environ["REPRO_PROBES"] == "0"

    def test_unchanged_state_keeps_the_recorders(self):
        set_instrumentation(True, True)
        tracer, recorder = TELEMETRY.tracer, PROBES.recorder
        with TELEMETRY.tracer.span("kept", cat="test"):
            pass
        set_instrumentation(True, True)
        assert TELEMETRY.tracer is tracer and PROBES.recorder is recorder
        assert "kept" in TELEMETRY.tracer.aggregates


# -- instrumented cells -------------------------------------------------------------


class TestCellCapture:
    def test_run_cell_attaches_snapshot_when_enabled(self):
        enable()
        record = run_cell(_spec())
        assert record.ok
        snapshot = record.telemetry
        assert snapshot is not None
        assert "simulate" in snapshot["phases"]
        assert "report" in snapshot["phases"]
        assert snapshot["sim_s"] > 0
        # Layer coverage inside one flow cell: executor phase + sim engine
        # + solver spans all present.
        cats = {ev["cat"] for ev in snapshot["events"]}
        assert {"phase", "sim", "solver"} <= cats

    def test_run_cell_without_telemetry(self):
        record = run_cell(_spec())
        assert record.ok
        assert record.telemetry is None

    def test_payload_identical_with_and_without_telemetry(self):
        spec = _spec()
        plain = run_cell(spec)
        enable()
        traced = run_cell(spec)
        assert json.dumps(plain.payload, sort_keys=True) == json.dumps(
            traced.payload, sort_keys=True
        )


# -- persistence --------------------------------------------------------------------


class TestStoreRoundTrip:
    def test_save_and_surface_telemetry(self, tmp_path):
        enable()
        spec = _spec()
        record = run_cell(spec)
        store = ArtifactStore(tmp_path / "store")
        store.save(spec, record.payload, record.report, record.elapsed_s,
                   telemetry=record.telemetry)
        entry = store.index()[spec.spec_hash()]
        assert "telemetry" in entry
        assert entry["telemetry"]["phases"]["store"] > 0  # store's own write time
        assert entry["sim_s"] > 0
        # elapsed_s is stored at ms granularity; sim_s at µs granularity.
        assert entry["sim_s"] <= entry["elapsed_s"] + 1e-3
        # Reopened store still has it (JSON round-trip through index.json).
        reopened = ArtifactStore(tmp_path / "store")
        assert reopened.index()[spec.spec_hash()]["telemetry"]["phases"]

    def test_old_entries_without_telemetry_are_tolerated(self, tmp_path):
        spec = _spec()
        record = run_cell(spec)
        store = ArtifactStore(tmp_path / "store")
        store.save(spec, record.payload, record.report, record.elapsed_s)
        entry = store.index()[spec.spec_hash()]
        assert "telemetry" not in entry and "sim_s" not in entry
        assert store.timing_rows() == []
        (row,) = store.status_rows()
        assert row["sim_s"] == ""
        assert "sim_s" in store.csv_columns()

    def test_timing_rows_aggregate(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        enable()
        spec = _spec()
        record = run_cell(spec)
        store.save(spec, record.payload, record.report, record.elapsed_s,
                   telemetry=record.telemetry)
        rows = store.timing_rows()
        phases = {row["phase"] for row in rows}
        assert {"simulate", "report", "store"} <= phases
        for row in rows:
            assert row["n"] == 1
            assert row["p50_ms"] <= row["p95_ms"] + 1e-9

    def test_session_telemetry_accumulates(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.save_session_telemetry({"kind": "campaign", "phases": {"plan": 0.1}})
        store.save_session_telemetry({"kind": "dist", "leases": []})
        payloads = store.load_session_telemetry()
        assert [p["kind"] for p in payloads] == ["campaign", "dist"]


# -- wire round-trip ----------------------------------------------------------------


class TestWire:
    def _roundtrip(self, message):
        # A result frame can outgrow the socket buffer, so it is sent from
        # a thread while this one receives.
        ours, theirs = socket.socketpair()
        receiver, sender = Channel(ours), Channel(theirs)
        thread = threading.Thread(target=sender.send, args=(message,))
        thread.start()
        try:
            return receiver.recv()
        finally:
            thread.join(timeout=10)
            sender.close()
            receiver.close()

    def test_result_frame_with_telemetry(self):
        enable()
        spec = _spec()
        record = run_cell(spec)
        frame = {
            "type": "result",
            "spec": spec.to_wire(),
            "elapsed_s": record.elapsed_s,
            "error": "",
            "payload": record.payload,
            "report": record.report,
            "telemetry": record.telemetry,
        }
        received = self._roundtrip(frame)
        assert received["telemetry"]["phases"].keys() == record.telemetry["phases"].keys()
        assert received["telemetry"]["sim_s"] == pytest.approx(
            record.telemetry["sim_s"]
        )

    def test_result_frame_without_telemetry_still_parses(self):
        spec = _spec()
        frame = {
            "type": "result",
            "spec": spec.to_wire(),
            "elapsed_s": 0.0,
            "error": "",
        }
        received = self._roundtrip(frame)
        assert "telemetry" not in received  # additive field, absent when off


# -- chrome trace export ------------------------------------------------------------


class TestChromeTrace:
    def _traced_store(self, tmp_path):
        enable()
        store = ArtifactStore(tmp_path / "store")
        spec = _spec()
        record = run_cell(spec)
        store.save(spec, record.payload, record.report, record.elapsed_s,
                   telemetry=record.telemetry)
        store.save_session_telemetry(
            {
                "kind": "dist",
                "leases": [
                    {
                        "worker": "w1",
                        "cell": "0123456789abcdef",
                        "attempt": 1,
                        "leased_at": 100.0,
                        "done_at": 101.0,
                        "revoked": False,
                    },
                    {
                        "worker": "w2",
                        "cell": "fedcba9876543210",
                        "attempt": 1,
                        "leased_at": 100.2,
                        "done_at": None,
                        "revoked": True,
                    },
                ],
                "revocations": 1,
            }
        )
        return store

    def test_schema_valid_and_multi_layer(self, tmp_path):
        store = self._traced_store(tmp_path)
        trace = chrome_trace(store)
        assert validate_trace(trace) == []
        cats = trace_categories(trace)
        assert {"phase", "sim", "solver", "dist"} <= set(cats)

    def test_written_file_is_loadable_json(self, tmp_path):
        store = self._traced_store(tmp_path)
        path = write_chrome_trace(store, tmp_path / "out" / "trace.json")
        trace = json.loads(path.read_text(encoding="utf-8"))
        assert validate_trace(trace) == []
        assert trace["displayTimeUnit"] == "ms"

    def test_timestamps_are_wall_anchored_microseconds(self, tmp_path):
        store = self._traced_store(tmp_path)
        trace = chrome_trace(store)
        cell_ts = [
            ev["ts"]
            for ev in trace["traceEvents"]
            if ev.get("ph") == "X" and ev["pid"] == 1
        ]
        # Wall-clock anchored: microseconds since the epoch, so far beyond
        # any plausible relative offset.
        assert min(cell_ts) > 1e12

    def test_revoked_lease_emits_instant_event(self, tmp_path):
        store = self._traced_store(tmp_path)
        trace = chrome_trace(store)
        instants = [ev for ev in trace["traceEvents"] if ev.get("ph") == "i"]
        assert len(instants) == 1
        assert "revoke" in instants[0]["name"]

    def test_one_event_per_lease_and_shard_sessions_still_render(self, tmp_path):
        """Each per-cell lease is one event; a session stored before leases
        were per cell lists shard timelines under ``shards`` and renders."""
        store = self._traced_store(tmp_path)
        store.save_session_telemetry(
            {
                "kind": "dist",
                "shards": [
                    {
                        "shard": 0,
                        "worker": "w1",
                        "cells": 4,
                        "attempt": 1,
                        "leased_at": 100.0,
                        "first_result_at": 100.5,
                        "done_at": 101.0,
                        "revoked": False,
                    },
                ],
            }
        )
        trace = chrome_trace(store)
        assert validate_trace(trace) == []
        leases = [
            ev for ev in trace["traceEvents"]
            if ev.get("cat") == "dist" and ev["ph"] == "X"
        ]
        assert [ev["name"] for ev in leases] == [
            "cell 0123456789abcdef", "cell fedcba9876543210", "shard 0",
        ]
        assert leases[0]["dur"] == pytest.approx(1e6)
        assert leases[2]["args"]["cells"] == 4
        # Both sessions' w1 leases share one worker row.
        assert leases[0]["tid"] == leases[2]["tid"]

    def test_validate_flags_malformed_traces(self):
        assert validate_trace({}) == ["traceEvents is missing or not a list"]
        problems = validate_trace(
            {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1, "ts": -5, "dur": 1}]}
        )
        assert any("missing 'name'" in p for p in problems)
        assert any("bad 'ts'" in p for p in problems)

    def test_empty_store_gives_metadata_only(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        trace = chrome_trace(store)
        assert validate_trace(trace) == []
        assert all(ev["ph"] == "M" for ev in trace["traceEvents"])


# -- structured logging -------------------------------------------------------------


class TestStructuredLog:
    @pytest.fixture(autouse=True)
    def _fresh_logging(self, monkeypatch):
        reset_logging()
        yield
        reset_logging()

    def _capture(self, fmt, emit, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG", fmt)
        logger = get_logger("campaign.test")
        emit(logger)
        return capsys.readouterr().err

    def test_text_format(self, monkeypatch, capsys):
        err = self._capture(
            "text",
            lambda log: log_event(log, "lease.assigned", attempt=3, worker="w 1"),
            monkeypatch,
            capsys,
        )
        assert 'lease.assigned attempt=3 worker="w 1"' in err

    def test_json_format(self, monkeypatch, capsys):
        err = self._capture(
            "json",
            lambda log: log_event(log, "lease.revoked", attempt=2, silent_s=31.5),
            monkeypatch,
            capsys,
        )
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["event"] == "lease.revoked"
        assert payload["attempt"] == 2
        assert payload["level"] == "INFO"

    def test_level_filtering(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "WARNING")
        logger = get_logger("campaign.test")
        log_event(logger, "quiet.event")  # INFO: filtered
        log_event(logger, "loud.event", level=logging.WARNING)
        err = capsys.readouterr().err
        assert "quiet.event" not in err
        assert "loud.event" in err
