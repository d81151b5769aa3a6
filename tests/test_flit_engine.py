"""Flit-engine suite: selection, calendar-queue semantics, and equivalence.

Covers engine selection via ``REPRO_SIM_ENGINE`` (including the batch
engine's NumPy gate and fallback), unit tests of the calendar-queue
scheduler's ordering/cancel/resume semantics, a randomized three-engine
equivalence suite (seeded scenarios across routing modes and noise levels,
asserting identical event counts, counter snapshots and message timelines —
the flit analogue of ``tests/test_flow_solver.py``), the pinned digest of
the smoke noisy ping-pong under every engine, byte-identical campaign
results across engines, the batch selector's vectorized wide-decision
path, and the ``queue_depth`` gauge on ``Simulator.run`` telemetry spans.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import logging
import random

import pytest

from repro.campaign import ensure_builtin_scenarios
from repro.campaign.executor import execute_spec
from repro.campaign.plan import RunSpec
from repro.config import SimulationConfig
from repro.experiments.harness import ExperimentScale
from repro.model import build_network_model
from repro.mpi.job import MpiJob
from repro.network.network import Network
from repro.noise.background import BackgroundTraffic, NoiseLevel
from repro.routing.modes import RoutingMode
from repro.sim.calendar import CalendarSimulator
from repro.sim.engine import (
    SIM_ENGINE_ENV_VAR,
    SIM_ENGINE_KINDS,
    SimEngineError,
    SimulationError,
    Simulator,
    default_engine_kind,
    effective_engine_kind,
    make_simulator,
)
from repro.telemetry import capture, disable, enable
from repro.telemetry.log import reset_logging
from repro.workloads.microbench import PingPongBenchmark

HAS_NUMPY = importlib.util.find_spec("numpy") is not None

#: Engines whose construction is unconditional here (batch needs NumPy; it
#: falls back to calendar without it, which would fail engine_kind asserts).
ENGINES = SIM_ENGINE_KINDS if HAS_NUMPY else ("calendar", "reference")


# -- engine selection ---------------------------------------------------------------


class TestEngineSelection:
    def test_known_kinds(self):
        assert set(SIM_ENGINE_KINDS) == {"calendar", "reference", "batch"}

    def test_default_is_calendar(self, monkeypatch):
        monkeypatch.delenv(SIM_ENGINE_ENV_VAR, raising=False)
        assert default_engine_kind() == "calendar"
        assert make_simulator().engine_kind == "calendar"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(SIM_ENGINE_ENV_VAR, "reference")
        assert default_engine_kind() == "reference"
        assert type(make_simulator()) is Simulator

    def test_env_is_normalized(self, monkeypatch):
        monkeypatch.setenv(SIM_ENGINE_ENV_VAR, "  Calendar ")
        assert default_engine_kind() == "calendar"

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv(SIM_ENGINE_ENV_VAR, "warp-drive")
        with pytest.raises(SimEngineError, match="warp-drive"):
            default_engine_kind()

    def test_explicit_kind_beats_env(self, monkeypatch):
        monkeypatch.setenv(SIM_ENGINE_ENV_VAR, "calendar")
        assert make_simulator("reference").engine_kind == "reference"

    def test_unknown_explicit_kind_raises(self):
        with pytest.raises(SimEngineError):
            make_simulator("splay-tree")

    def test_network_uses_selected_engine(self, monkeypatch):
        monkeypatch.setenv(SIM_ENGINE_ENV_VAR, "reference")
        assert Network(SimulationConfig.tiny()).sim.engine_kind == "reference"
        monkeypatch.setenv(SIM_ENGINE_ENV_VAR, "calendar")
        assert isinstance(Network(SimulationConfig.tiny()).sim, CalendarSimulator)

    def test_batch_engine_selected(self, monkeypatch):
        pytest.importorskip("numpy")
        from repro.sim.batch import BatchSimulator

        monkeypatch.setenv(SIM_ENGINE_ENV_VAR, "batch")
        assert type(make_simulator()) is BatchSimulator
        network = Network(SimulationConfig.tiny())
        assert network.sim.engine_kind == "batch"
        # The batch network plane is wired in: fused links and selector.
        from repro.network.batch_core import BatchLink
        from repro.routing.ugal import BatchUgalSelector

        assert all(type(link) is BatchLink for link in network.fabric_links())
        assert type(network.selector) is BatchUgalSelector

    def test_explicit_sim_overrides_env(self, monkeypatch):
        """``Network(sim=...)`` wins over REPRO_SIM_ENGINE."""
        monkeypatch.setenv(SIM_ENGINE_ENV_VAR, "batch")
        network = Network(SimulationConfig.tiny(), sim=make_simulator("reference"))
        assert network.sim.engine_kind == "reference"
        from repro.network.batch_core import BatchLink

        assert not any(type(link) is BatchLink for link in network.fabric_links())

    def test_batch_without_numpy_falls_back(self, monkeypatch, capsys):
        """No NumPy: batch degrades to calendar with a structured warning.

        Same idiom as the REPRO_FLOW_SOLVER vectorized/reference fallback —
        the run proceeds on the equivalent engine, and the downgrade is
        visible in the structured log rather than silent.
        """
        monkeypatch.setattr("repro.sim.engine._numpy_available", lambda: False)
        reset_logging()
        try:
            sim = make_simulator("batch")
        finally:
            err = capsys.readouterr().err
            reset_logging()
        assert sim.engine_kind == "calendar"
        assert "sim.engine.fallback" in err
        assert "numpy-unavailable" in err
        assert effective_engine_kind("batch") == "calendar"

    def test_effective_engine_kind_resolves_env(self, monkeypatch):
        monkeypatch.setenv(SIM_ENGINE_ENV_VAR, "reference")
        assert effective_engine_kind() == "reference"
        if HAS_NUMPY:
            assert effective_engine_kind("batch") == "batch"


# -- calendar-queue scheduler semantics ---------------------------------------------


class TestCalendarSimulator:
    def test_time_order_across_buckets(self):
        sim = CalendarSimulator()
        hits = []
        sim.schedule_call(10, hits.append, 10)
        sim.schedule_call(5, hits.append, 5)
        sim.schedule_call(7, hits.append, 7)
        sim.run()
        assert hits == [5, 7, 10]
        assert sim.now == 10

    def test_fifo_within_a_bucket(self):
        sim = CalendarSimulator()
        hits = []
        for i in range(6):
            sim.schedule_call(4, hits.append, i)
        sim.run()
        assert hits == list(range(6))

    def test_zero_delay_from_callback_runs_same_pass(self):
        """A callback scheduling delay-0 work appends to the live bucket."""
        sim = CalendarSimulator()
        hits = []

        def first():
            hits.append("first")
            sim.schedule_call(0, hits.append, "chained")

        sim.schedule_call(3, first)
        sim.schedule_call(3, hits.append, "second")
        sim.run()
        assert hits == ["first", "second", "chained"]
        assert sim.now == 3

    def test_matches_reference_on_this_contract(self):
        """The reference engine executes the exact same order."""

        def drive(sim):
            hits = []

            def first():
                hits.append("first")
                sim.schedule_call(0, hits.append, "chained")

            sim.schedule_call(3, first)
            sim.schedule_call(3, hits.append, "second")
            sim.run()
            return hits

        assert drive(CalendarSimulator()) == drive(Simulator())

    def test_negative_delay_raises(self):
        sim = CalendarSimulator()
        with pytest.raises(SimulationError):
            sim.schedule_call(-1, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_float_delay_rounds_up(self):
        sim = CalendarSimulator()
        times = []
        sim.schedule_call(0.25, lambda: times.append(sim.now))
        sim.run()
        assert times == [1]

    def test_until_clamps_clock_and_keeps_future_events(self):
        sim = CalendarSimulator()
        hits = []
        sim.schedule_call(100, hits.append, "late")
        sim.run(until=40)
        assert sim.now == 40 and hits == []
        sim.run()
        assert hits == ["late"] and sim.now == 100

    def test_max_events_stops_mid_bucket_and_resumes(self):
        sim = CalendarSimulator()
        hits = []
        for i in range(5):
            sim.schedule_call(8, hits.append, i)
        sim.run(max_events=2)
        assert hits == [0, 1] and sim.now == 8
        sim.run(max_events=2)
        assert hits == [0, 1, 2, 3]
        sim.run()
        assert hits == [0, 1, 2, 3, 4]
        assert sim.pending_events == 0

    def test_step_interoperates_with_run(self):
        sim = CalendarSimulator()
        hits = []
        for i in range(4):
            sim.schedule_call(i + 1, hits.append, i)
        assert sim.step() and hits == [0]
        sim.run(until=2)
        assert hits == [0, 1]
        assert sim.step() and sim.step()
        assert not sim.step()
        assert hits == [0, 1, 2, 3]

    def test_cancel_skips_event(self):
        sim = CalendarSimulator()
        hits = []
        keep = sim.schedule(5, hits.append, "keep")
        drop = sim.schedule(5, hits.append, "drop")
        assert drop.time == 5 and not drop.cancelled
        drop.cancel()
        assert drop.cancelled and not keep.cancelled
        sim.run()
        assert hits == ["keep"]

    def test_cancel_is_idempotent(self):
        sim = CalendarSimulator()
        event = sim.schedule(5, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.live_events == 0

    def test_cancel_after_execution_is_noop(self):
        sim = CalendarSimulator()
        event = sim.schedule(5, lambda: None)
        sim.run()
        event.cancel()  # must not corrupt the live-event counter
        assert sim.live_events == 0 and sim.empty()

    def test_stop_from_callback(self):
        sim = CalendarSimulator()
        hits = []
        sim.schedule_call(1, lambda: (hits.append("a"), sim.stop()))
        sim.schedule_call(1, hits.append, "b")
        sim.run()
        assert hits == ["a"]
        sim.run()
        assert hits == ["a", "b"]

    def test_reset_clears_and_inerts_stale_handles(self):
        sim = CalendarSimulator()
        hits = []
        stale = sim.schedule(5, hits.append, "old")
        sim.reset()
        assert sim.now == 0 and sim.empty() and sim.pending_events == 0
        sim.schedule_call(1, hits.append, "new")
        stale.cancel()  # handle from the previous epoch must be inert
        assert sim.live_events == 1
        sim.run()
        assert hits == ["new"]

    def test_accounting(self):
        sim = CalendarSimulator()
        assert sim.empty()
        sim.schedule_call(1, lambda: None)
        event = sim.schedule(1, lambda: None)
        assert sim.pending_events == 2 and sim.live_events == 2
        event.cancel()
        assert sim.live_events == 1 and not sim.empty()
        sim.run()
        assert sim.events_executed == 1 and sim.empty()

    def test_not_reentrant(self):
        sim = CalendarSimulator()
        sim.schedule_call(1, lambda: sim.run())
        with pytest.raises(SimulationError, match="reentrant"):
            sim.run()

    @pytest.mark.parametrize("seed", [3, 17, 4242])
    def test_fuzzed_order_matches_reference(self, seed):
        """Random schedules (duplicate times, chains) execute identically."""

        def drive(sim):
            rng = random.Random(seed)
            order = []

            def hit(tag, depth):
                order.append((sim.now, tag))
                if depth > 0 and rng.random() < 0.4:
                    sim.schedule_call(rng.choice([0, 0, 1, 3]), hit, tag * 31 + 7, depth - 1)

            for tag in range(120):
                sim.schedule_call(rng.randrange(12), hit, tag, 3)
            sim.run()
            return order, sim.events_executed, sim.now

        assert drive(CalendarSimulator()) == drive(Simulator())


# -- randomized reference-vs-calendar equivalence -----------------------------------


MODES = (
    RoutingMode.ADAPTIVE_0,
    RoutingMode.ADAPTIVE_1,
    RoutingMode.ADAPTIVE_3,
    RoutingMode.MIN_HASH,
    RoutingMode.NMIN_HASH,
)

NOISE = (NoiseLevel.NONE, NoiseLevel.NONE, NoiseLevel.LIGHT, NoiseLevel.MODERATE)


def _run_scenario(engine: str, seed: int) -> dict:
    """One seeded traffic scenario under the given engine; returns observables.

    The scenario generator draws every choice from ``random.Random(seed)``
    *before* touching the network, so both engines replay the identical
    script; any divergence in the returned dict is the engine's fault.
    """
    rng = random.Random(seed)
    config = SimulationConfig.small(seed=1000 + seed)
    network = Network(config, sim=make_simulator(engine))
    num_nodes = network.num_nodes
    noise_level = rng.choice(NOISE)
    sends = []
    clock = 0
    for _ in range(rng.randrange(6, 14)):
        clock += rng.randrange(0, 3000)
        src = rng.randrange(num_nodes)
        dst = rng.randrange(num_nodes - 1)
        if dst >= src:
            dst += 1
        sends.append(
            (
                clock,
                src,
                dst,
                rng.choice((256, 1024, 4096, 16384)),
                rng.choice(MODES),
            )
        )
    noise = None
    if noise_level is not NoiseLevel.NONE:
        noise = BackgroundTraffic.for_level(
            network, [0, num_nodes - 1], noise_level, name=f"eq-{seed}"
        )
        if noise is not None:
            noise.start()
    messages = []
    for at, src, dst, size, mode in sends:
        network.run(until=at)
        messages.append(network.send(src, dst, size, routing_mode=mode))
    if noise is not None:
        # Let the noise overlap the tail of the traffic, then drain.
        network.run(until=network.sim.now + 5_000)
        noise.stop()
    network.run_until_idle()
    selector = network.selector
    return {
        "engine_kind": network.sim.engine_kind,
        "events": network.sim.events_executed,
        "now": network.sim.now,
        "timelines": [
            (m.submit_time, m.first_injection_time, m.delivered_time, m.acked_time)
            for m in messages
        ],
        "routing": [
            (m.minimal_packets, m.nonminimal_packets) for m in messages
        ],
        "decisions": (
            selector.decisions,
            selector.minimal_decisions,
            selector.nonminimal_decisions,
        ),
        "counters": [
            dataclasses.asdict(nic.counters.snapshot()) for nic in network.nics
        ],
        "flits_forwarded": sum(r.flits_traversed for r in network.routers),
    }


class TestEngineEquivalence:
    """Event-for-event parity between all engines on real traffic.

    24 seeded scenarios spanning routing modes, message sizes, send
    schedules and noise levels; everything observable must match exactly,
    pairwise across every engine.  The batch engine is held to *more* than
    its contract (observable-state equality): its fused plane is a
    statement-for-statement transcription, so even the event counts match.
    """

    @pytest.mark.parametrize("seed", range(24))
    def test_equivalent_scenario(self, seed):
        results = {}
        for engine in ENGINES:
            result = _run_scenario(engine, seed)
            assert result.pop("engine_kind") == engine
            results[engine] = result
        baseline = results["reference"]
        for engine, result in results.items():
            assert result == baseline, f"{engine} diverged from reference"


class TestSmokePingPongDigest:
    """Every engine reproduces the pinned smoke noisy ping-pong exactly.

    The smoke-scale twin of the benchmark's ``flit-pingpong`` workload:
    MODERATE noise between nodes 0 and last, a 16 KiB (scaled) ping-pong
    with one warmup.  The digest covers everything observable from the
    outside, so any change to the simulated behaviour moves it.
    """

    DIGEST = "5640dc0083c0bef7c8d901beb375e1749c755e1aa90dbeb244537b1a0d28f249"

    @pytest.mark.parametrize("engine", SIM_ENGINE_KINDS)
    def test_pinned_digest(self, monkeypatch, engine):
        monkeypatch.setenv(SIM_ENGINE_ENV_VAR, engine)
        scale = ExperimentScale.smoke()
        network = build_network_model(scale.simulation_config().with_backend("flit"))
        allocation = [0, network.num_nodes - 1]
        noise = BackgroundTraffic.for_level(
            network, allocation, NoiseLevel.MODERATE, name="bench-noise"
        )
        noise.start()
        job = MpiJob(network, allocation, name="bench-flit")
        result = PingPongBenchmark(
            size_bytes=scale.scaled_size(16 * 1024),
            iterations=scale.pingpong_repetitions,
            warmup=1,
        ).run(job)
        noise.stop()
        selector = network.selector
        observable = {
            "events": network.sim.events_executed,
            "simulated_cycles": network.sim.now,
            "iteration_times": list(result.iteration_times),
            "counters": [
                dataclasses.asdict(network.nic(node).counters.snapshot())
                for node in allocation
            ],
            "decisions": [
                selector.decisions,
                selector.minimal_decisions,
                selector.nonminimal_decisions,
            ],
        }
        assert observable["events"] == 101_337
        assert observable["simulated_cycles"] == 49_178
        digest = hashlib.sha256(
            json.dumps(observable, sort_keys=True).encode()
        ).hexdigest()
        assert digest == self.DIGEST


class TestRunSpecStoreEquivalence:
    """A campaign cell produces byte-identical results under every engine."""

    SPEC = {
        "scenario": "pingpong-placement",
        "params": {"placement": "inter-nodes", "message_kib": 4, "noise": "none"},
    }

    def _payload(self, monkeypatch, engine: str) -> dict:
        ensure_builtin_scenarios()
        monkeypatch.setenv(SIM_ENGINE_ENV_VAR, engine)
        spec = RunSpec.make(self.SPEC["scenario"], self.SPEC["params"])
        payload, _report, _elapsed = execute_spec(spec)
        return payload

    def test_identical_store_payloads(self, monkeypatch):
        # Deliberately SIM_ENGINE_KINDS, not ENGINES: without NumPy the
        # batch run falls back to calendar, whose bytes must still match.
        blobs = {
            engine: json.dumps(
                self._payload(monkeypatch, engine), sort_keys=True
            ).encode()
            for engine in SIM_ENGINE_KINDS
        }
        assert len(set(blobs.values())) == 1, (
            "store payloads diverged across engines: "
            + ", ".join(sorted(blobs))
        )


class TestVectorizedWideDecisions:
    """Wide candidate sets route through the NumPy scoring entry point."""

    def _run_wide(self, engine: str) -> dict:
        config = SimulationConfig.small(seed=77).with_routing(
            minimal_candidates=4, nonminimal_candidates=4
        )
        network = Network(config, sim=make_simulator(engine))
        rng = random.Random(909)
        messages = []
        clock = 0
        for _ in range(8):
            clock += rng.randrange(0, 2000)
            src = rng.randrange(network.num_nodes)
            dst = (src + rng.randrange(1, network.num_nodes)) % network.num_nodes
            network.run(until=clock)
            messages.append(
                network.send(src, dst, 4096, routing_mode=RoutingMode.ADAPTIVE_1)
            )
        network.run_until_idle()
        selector = network.selector
        return {
            "events": network.sim.events_executed,
            "timelines": [
                (m.submit_time, m.delivered_time, m.acked_time) for m in messages
            ],
            "routing": [
                (m.minimal_packets, m.nonminimal_packets) for m in messages
            ],
            "decisions": (selector.decisions, selector.minimal_decisions),
        }

    def test_wide_decisions_are_vectorized_and_equivalent(self, monkeypatch):
        pytest.importorskip("numpy")
        from repro.routing.ugal import VECTORIZE_MIN_CANDIDATES, BatchUgalSelector

        assert 4 + 4 >= VECTORIZE_MIN_CANDIDATES
        calls = {"n": 0}
        original = BatchUgalSelector._select_vectorized

        def spy(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BatchUgalSelector, "_select_vectorized", spy)
        batch = self._run_wide("batch")
        assert calls["n"] > 0, "batch selector never took the vectorized path"
        assert batch == self._run_wide("reference")


# -- telemetry: queue_depth on sim.run spans ----------------------------------------


class TestSimRunTelemetry:
    @pytest.fixture(autouse=True)
    def _telemetry_off(self):
        disable()
        yield
        disable()

    @pytest.mark.parametrize("engine", SIM_ENGINE_KINDS)
    def test_run_span_reports_live_queue_depth(self, engine):
        network = Network(SimulationConfig.tiny(), sim=make_simulator(engine))
        message = network.send(0, network.num_nodes - 1, 1024)
        enable()
        with capture() as cap:
            network.run_until_idle()
        snapshot = cap.snapshot()
        spans = [ev for ev in snapshot["events"] if ev["name"] == "sim.run"]
        assert spans, "network.run must emit a sim.run span"
        args = spans[-1]["args"]
        assert args["queue_depth"] == network.sim.live_events
        assert args["events"] > 0
        assert message.acked
