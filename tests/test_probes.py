"""Network flight recorder: fast path, payload neutrality, analytics.

Covers the off-by-default zero-cost path, payload byte-identity with probes
enabled on both backends, flit/flow series schema compatibility, ring-buffer
decimation bounds, wire and store round-trips of probe sidecars, the
phantom-congestion decision audit, and the heatmap/CSV/Chrome-counter
analytics built on the sidecars.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import sys
import threading

import pytest

from repro.analysis import congestion
from repro.campaign import (
    ArtifactStore,
    ensure_builtin_scenarios,
    plan_campaign,
    run_cell,
)
from repro.campaign.dist.protocol import Channel
from repro.telemetry import capture, snapshot_of, Metrics, Tracer
from repro.telemetry import probes as probes_module
from repro.telemetry.export import chrome_trace, validate_trace
from repro.telemetry.probes import (
    PROBES,
    ProbeRecorder,
    RingSeries,
    disable_probes,
    enable_probes,
    env_probes_enabled,
)


@pytest.fixture(autouse=True)
def _probes_off():
    """Every test starts and ends with probes off."""
    disable_probes()
    yield
    disable_probes()


@pytest.fixture
def audit_all(monkeypatch):
    """Probes on, auditing every UGAL decision instead of the fixed 2%.

    The rate is a module constant read when a recorder is created; only
    tests change it, so the decision-audit assertions get records on a
    one-cell grid.
    """
    monkeypatch.setattr(probes_module, "DECISION_RATE", 1.0)
    enable_probes()


def _spec(backend: str = "flit"):
    ensure_builtin_scenarios()
    plan = plan_campaign(
        ["pingpong-placement"],
        scale="smoke",
        overrides={
            "message_kib": [4],
            "noise": ["none"],
            "placement": ["inter-groups"],
        },
        backend=backend,
    )
    return plan.specs[0]


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# -- disabled fast path -------------------------------------------------------------


class TestDisabledFastPath:
    def test_run_cell_without_probes(self):
        record = run_cell(_spec())
        assert record.ok
        assert record.probes is None

    def test_capture_snapshot_is_none(self):
        with capture() as cap:
            pass
        assert cap.probe_snapshot() is None

    def test_singleton_identity_stable_across_toggles(self):
        before = PROBES
        enable_probes()
        assert PROBES is before and PROBES.enabled
        disable_probes()
        assert PROBES is before and not PROBES.enabled
        assert PROBES.recorder is None

    def test_env_parsing(self):
        assert env_probes_enabled({"REPRO_PROBES": "1"})
        assert env_probes_enabled({"REPRO_PROBES": "yes"})
        assert not env_probes_enabled({"REPRO_PROBES": "0"})
        assert not env_probes_enabled({})

    def test_env_var_activates_fresh_interpreter(self):
        code = (
            "from repro.telemetry.probes import PROBES; "
            "print(PROBES.enabled, PROBES.recorder.interval)"
        )
        env = dict(os.environ, REPRO_PROBES="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), _repo_src()) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.stdout.strip() == "True 256"


def _repo_src() -> str:
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


# -- ring buffer --------------------------------------------------------------------


class TestRingSeries:
    def test_decimation_bounds_memory(self):
        ring = RingSeries("occupancy", "global", 0, max_points=8)
        for i in range(1000):
            ring.add(i, float(i))
        assert len(ring) <= 8
        assert ring.samples_seen == 1000
        # Stride doubles on each decimation: always a power of two.
        assert ring.stride & (ring.stride - 1) == 0
        # Retained grid stays aligned: every kept t is a stride multiple.
        assert all(t % ring.stride == 0 for t in ring.t)
        # Coverage spans the whole run, not just the tail.
        assert ring.t[0] == 0 and ring.t[-1] >= 1000 - ring.stride

    def test_no_decimation_below_cap(self):
        ring = RingSeries("queue", "local", 1)
        for i in range(100):
            ring.add(i * 256, 1.5)
        assert len(ring) == 100 and ring.stride == 1

    def test_to_dict_schema(self):
        ring = RingSeries("occupancy", "global", 2)
        ring.add(256, 1.23456)
        record = ring.to_dict()
        assert set(record) == {
            "metric", "cls", "group", "t", "v", "stride", "samples_seen",
        }
        assert record["v"] == [1.2346]  # rounded for sidecar compactness


# -- payload neutrality -------------------------------------------------------------


class TestEngineNeutrality:
    """Probes on must never change a payload, on either backend."""

    def test_flit_payload_byte_identical(self, monkeypatch):
        spec = _spec("flit")
        plain = run_cell(spec)
        monkeypatch.setattr(probes_module, "DECISION_RATE", 1.0)
        enable_probes()
        probed = run_cell(spec)
        assert plain.ok and probed.ok
        assert _canonical(plain.payload) == _canonical(probed.payload)
        assert plain.probes is None
        snapshot = probed.probes
        assert snapshot is not None and snapshot["backend"] == "flit"
        assert any(
            s["metric"] == "occupancy" and s["cls"] == "global"
            for s in snapshot["series"]
        )
        assert snapshot["decisions_sampled"] > 0

    def test_flow_payload_byte_identical(self):
        spec = _spec("flow")
        plain = run_cell(spec)
        enable_probes()
        probed = run_cell(spec)
        assert plain.ok and probed.ok
        assert _canonical(plain.payload) == _canonical(probed.payload)
        snapshot = probed.probes
        assert snapshot is not None and snapshot["backend"] == "flow"
        assert any(s["metric"] == "occupancy" for s in snapshot["series"])

    def test_sidecar_records_the_fixed_knobs(self):
        """256 cycles and 2% are the only values; sidecars still say so."""
        enable_probes()
        snapshot = run_cell(_spec("flow")).probes
        assert set(snapshot) == {
            "version", "backend", "interval", "decision_rate", "series",
            "decisions", "decisions_seen", "decisions_sampled", "flips",
        }
        assert snapshot["interval"] == 256
        assert snapshot["decision_rate"] == 0.02

    def test_probe_snapshots_are_deterministic(self, audit_all):
        spec = _spec("flit")
        first = run_cell(spec)
        second = run_cell(spec)
        assert _canonical(first.probes) == _canonical(second.probes)


class TestSchemaCompat:
    """Flit and flow emit the same series schema (same record fields)."""

    def _series(self, backend):
        enable_probes()
        record = run_cell(_spec(backend))
        assert record.probes is not None
        return record.probes["series"]

    def test_flow_series_shape_matches_flit(self):
        flit = self._series("flit")
        flow = self._series("flow")
        assert flit and flow
        flit_fields = {frozenset(s) for s in flit}
        flow_fields = {frozenset(s) for s in flow}
        assert flit_fields == flow_fields  # identical record schema
        # Flow's metric set is a subset: no per-flit "queue" analogue.
        flit_metrics = {s["metric"] for s in flit}
        flow_metrics = {s["metric"] for s in flow}
        assert flow_metrics <= flit_metrics
        assert "occupancy" in flow_metrics
        # Both carry every fabric class plus NIC counters.
        for series in (flit, flow):
            assert {"local", "global", "injection", "nic"} <= {
                s["cls"] for s in series
            }


# -- routing-decision audit ---------------------------------------------------------


class TestDecisionAudit:
    def test_audit_records_full_decisions(self, audit_all):
        record = run_cell(_spec("flit"))
        snapshot = record.probes
        assert snapshot["decisions_seen"] >= snapshot["decisions_sampled"] > 0
        assert 0 <= snapshot["flips"] <= snapshot["decisions_sampled"]
        decision = snapshot["decisions"][0]
        assert set(decision) >= {
            "t", "src", "dst", "mode", "bias", "penalty", "chosen",
            "minimal", "live_choice", "flip", "candidates",
        }
        for candidate in decision["candidates"]:
            assert set(candidate) >= {
                "path", "minimal", "queue", "far_stale", "far_live",
                "score", "score_live",
            }
        # The stored flip flags agree with the flip counter (below the
        # MAX_DECISIONS cap the stored list is the complete sample).
        if snapshot["decisions_sampled"] == len(snapshot["decisions"]):
            assert snapshot["flips"] == sum(
                1 for d in snapshot["decisions"] if d["flip"]
            )

    def test_zero_rate_counts_but_never_samples(self, monkeypatch):
        monkeypatch.setattr(probes_module, "DECISION_RATE", 0.0)
        enable_probes()
        record = run_cell(_spec("flit"))
        snapshot = record.probes
        assert snapshot["decisions_seen"] > 0
        assert snapshot["decisions_sampled"] == 0 and snapshot["decisions"] == []

    def test_decision_cap_bounds_memory(self):
        recorder = ProbeRecorder(max_decisions=3)
        for i in range(10):
            recorder.record_decision({"t": i, "flip": i % 2 == 0})
        assert len(recorder.decisions) == 3
        assert recorder.decisions_sampled == 10
        assert recorder.flips == 5


class TestDecisionAuditPin:
    """The audit trail of a fully audited one-cell flit run, pinned.

    Recorded while the audit still re-drew and re-scored its candidates
    in a separate copy of the UGAL decision; the audit now reads the
    candidates the decision itself scored, and must record the same
    trail: every candidate's reads and scores, the stale and live
    winners, and the flip count.
    """

    DECISIONS_DIGEST = "4503f6a856441de0cee44cedc693c4a71bfe531150df1dd6352f07a6b652801d"

    def test_audit_trail_matches_the_pin(self, audit_all):
        snapshot = run_cell(_spec("flit")).probes
        text = json.dumps(snapshot["decisions"], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DECISIONS_DIGEST
        counts = (
            snapshot["decisions_seen"],
            snapshot["decisions_sampled"],
            snapshot["flips"],
        )
        assert counts == (504, 504, 122)


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

    def test_result_frame_with_probes(self, audit_all):
        spec = _spec("flit")
        record = run_cell(spec)
        frame = {
            "type": "result",
            "spec": spec.to_wire(),
            "elapsed_s": record.elapsed_s,
            "error": "",
            "payload": record.payload,
            "report": record.report,
            "probes": record.probes,
        }
        received = self._roundtrip(frame)
        assert _canonical(received["probes"]) == _canonical(record.probes)

    def test_result_frame_without_probes_still_parses(self):
        frame = {
            "type": "result",
            "spec": _spec().to_wire(),
            "elapsed_s": 0.0,
            "error": "",
        }
        received = self._roundtrip(frame)
        assert "probes" not in received  # additive field, absent when off


# -- store round-trip ---------------------------------------------------------------


class TestStoreRoundTrip:
    def _saved_store(self, tmp_path):
        spec = _spec("flit")
        record = run_cell(spec)
        store = ArtifactStore(tmp_path / "store")
        store.save(spec, record.payload, record.report, record.elapsed_s,
                   probes=record.probes)
        return store, spec, record

    def test_sidecar_lands_next_to_results(self, tmp_path, audit_all):
        store, spec, record = self._saved_store(tmp_path)
        assert store.has_probes(spec)
        assert store.probe_path(spec).exists()
        loaded = store.load_probes(spec)
        assert _canonical(loaded) == _canonical(record.probes)
        entry = store.index()[spec.spec_hash()]
        assert entry["probes"] == f"probes/{spec.spec_hash()}.json"
        summary = entry["probe_summary"]
        assert summary["backend"] == "flit"
        assert summary["series"] == len(record.probes["series"])
        # The payload itself never carries probe data.
        payload = store.load(spec)
        assert "probes" not in payload

    def test_iter_probe_snapshots_attributes_cells(self, tmp_path, audit_all):
        store, spec, _record = self._saved_store(tmp_path)
        reopened = ArtifactStore(store.root)
        (frame,) = list(reopened.iter_probe_snapshots())
        assert frame["hash"] == spec.spec_hash()
        assert frame["scenario"] == spec.scenario
        assert frame["series"]

    def test_entries_without_probes_are_tolerated(self, tmp_path):
        spec = _spec("flow")
        record = run_cell(spec)
        store = ArtifactStore(tmp_path / "store")
        store.save(spec, record.payload, record.report, record.elapsed_s)
        assert not store.has_probes(spec)
        with pytest.raises(KeyError):
            store.load_probes(spec)
        assert list(store.iter_probe_snapshots()) == []


# -- analytics ----------------------------------------------------------------------


def _synthetic_frames():
    """Two cells' worth of hand-built series + decisions."""
    return [
        {
            "hash": "aaaa",
            "scenario": "pingpong-placement",
            "series": [
                {"metric": "occupancy", "cls": "global", "group": 0,
                 "t": [0, 100, 200, 300], "v": [1.0, 2.0, 3.0, 4.0]},
                {"metric": "occupancy", "cls": "local", "group": 1,
                 "t": [0, 100, 200, 300], "v": [0.0, 0.0, 1.0, 1.0]},
                {"metric": "occupancy", "cls": "nic", "group": 0,
                 "t": [0, 300], "v": [9.0, 9.0]},
            ],
            "decisions": [
                {"t": 5, "src": 0, "dst": 7, "minimal": True, "flip": True,
                 "candidates": [{}, {}]},
            ],
            "decisions_seen": 50,
            "decisions_sampled": 2,
            "flips": 1,
        },
        {
            "hash": "bbbb",
            "scenario": "pingpong-placement",
            "series": [
                {"metric": "occupancy", "cls": "global", "group": 0,
                 "t": [0, 300], "v": [2.0, 2.0]},
            ],
            "decisions": [],
            "decisions_seen": 10,
            "decisions_sampled": 0,
            "flips": 0,
        },
    ]


class TestCongestionAnalytics:
    def test_group_time_heatmap_shape_and_means(self):
        heatmap = congestion.group_time_heatmap(_synthetic_frames(), bins=2)
        assert heatmap["groups"] == [0, 1]
        assert heatmap["bins"] == 2
        # Group 0, first bin: occupancy points 1.0, 2.0 (cell a) and 2.0,
        # 2.0 spans both bins -> first-bin points are 1.0, 2.0, 2.0.
        assert heatmap["matrix"][0][0] == pytest.approx(5.0 / 3.0, abs=1e-4)
        # NIC series excluded from the fabric heatmap.
        assert all(v is None or v < 9.0
                   for row in heatmap["matrix"] for v in row)

    def test_heatmap_render_and_csv(self):
        heatmap = congestion.group_time_heatmap(_synthetic_frames(), bins=4)
        text = congestion.render_heatmap(heatmap)
        assert "g00 |" in text and "g01 |" in text
        assert "occupancy" in text
        csv_text = congestion.heatmap_csv(heatmap)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("group,")
        assert len(lines) == 3  # header + two groups
        assert lines[1].startswith("g0,")

    def test_heatmap_none_when_no_matching_series(self):
        assert congestion.group_time_heatmap(
            _synthetic_frames(), metric="nonexistent"
        ) is None

    def test_link_rank_orders_hottest_first(self):
        rows = congestion.link_rank(_synthetic_frames())
        assert rows[0]["cls"] == "nic" and rows[0]["mean"] == 9.0
        means = [row["mean"] for row in rows]
        assert means == sorted(means, reverse=True)
        ranked = congestion.render_link_rank(rows, "occupancy")
        assert "hotspots" in ranked

    def test_phantom_summary_pools_cells(self):
        summary = congestion.phantom_summary(_synthetic_frames())
        assert summary["decisions_seen"] == 60
        assert summary["decisions_sampled"] == 2
        assert summary["flips"] == 1
        assert summary["flip_fraction"] == 0.5
        assert len(summary["examples"]) == 1
        text = congestion.render_phantom(summary)
        assert "would flip" in text

    def test_job_alignment_with_cluster_columns(self, tmp_path):
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / "cccc.json").write_text(
            json.dumps({"data": {"jobs": [
                {"workload": "alltoall", "job_id": 1, "start": 0,
                 "finish": 200, "slowdown": 1.5},
                {"workload": "pingpong", "job_id": 2, "start": 200,
                 "finish": 400, "slowdown": 1.1},
            ]}}),
            encoding="utf-8",
        )

        class _FakeStore:
            root = tmp_path

            def index(self):
                return {"cccc": {"scenario": "cluster-trace",
                                 "result": "results/cccc.json"}}

        frames = [{
            "hash": "cccc",
            "scenario": "cluster-trace",
            "series": [
                {"metric": "occupancy", "cls": "global", "group": 0,
                 "t": [0, 100, 200, 300], "v": [2.0, 4.0, 6.0, 8.0]},
            ],
        }]
        rows = congestion.job_alignment(_FakeStore(), frames)
        assert [row["job_id"] for row in rows] == [1, 2]  # worst first
        assert rows[0]["mean_occupancy"] == pytest.approx(4.0)  # t in 0..200
        assert rows[1]["mean_occupancy"] == pytest.approx(7.0)  # t in 200..400
        table = congestion.render_job_alignment(rows, "occupancy")
        assert "alltoall" in table


# -- chrome counter export ----------------------------------------------------------


class TestChromeCounters:
    def test_probe_sidecars_become_counter_tracks(self, tmp_path):
        enable_probes()
        spec = _spec("flit")
        record = run_cell(spec)
        store = ArtifactStore(tmp_path / "store")
        store.save(spec, record.payload, record.report, record.elapsed_s,
                   probes=record.probes)
        trace = chrome_trace(store)
        assert validate_trace(trace) == []
        counters = [ev for ev in trace["traceEvents"] if ev.get("ph") == "C"]
        assert counters
        assert all(ev["pid"] == 3 for ev in counters)
        names = {ev["name"] for ev in counters}
        assert any(name.startswith("occupancy") for name in names)
        # Counter args carry per-group values on sim-cycle timestamps.
        sample = counters[0]
        assert isinstance(sample["args"], dict) and sample["ts"] >= 0

    def test_validate_flags_malformed_counters(self):
        problems = validate_trace(
            {"traceEvents": [
                {"name": "x", "ph": "C", "pid": 3, "tid": 1, "ts": -1},
            ]}
        )
        assert any("bad 'ts'" in p for p in problems)
        assert any("counter without args" in p for p in problems)

    def test_stores_without_probes_emit_no_counter_rows(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        trace = chrome_trace(store)
        assert all(ev.get("ph") != "C" for ev in trace["traceEvents"])


# -- tracer cap surfacing -----------------------------------------------------------


class TestEventsDropped:
    def test_snapshot_surfaces_events_dropped(self):
        tracer = Tracer(max_events=2)
        for _ in range(5):
            with tracer.span("tick", cat="test"):
                pass
        snapshot = snapshot_of(tracer, Metrics())
        assert snapshot["events_dropped"] == 3
        assert snapshot["dropped"] == 3  # legacy alias kept
