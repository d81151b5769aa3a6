"""Flit-engine suite: calendar-queue semantics and golden behaviour pins.

Covers unit tests of the calendar-queue scheduler's ordering/cancel/resume
semantics (fuzzed against the heap :class:`~repro.sim.engine.Simulator` as
oracle), then pins the flit backend's observable behaviour with sha256
digests: 24 seeded traffic scenarios across routing modes and noise levels,
the smoke noisy ping-pong, one campaign cell's store payload and a wide
(4+4 candidate) UGAL run.  Every pin was recorded while the flit backend
still shipped three interchangeable engines (heap, calendar and a fused
NumPy plane) and all three produced these exact bytes, so the pins carry
that cross-engine parity forward without a second implementation.  The
``queue_depth`` gauge on ``Simulator.run`` telemetry spans closes the file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Optional

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
from repro.sim.engine import SimulationError, Simulator
from repro.telemetry import capture, disable, enable
from repro.workloads.microbench import PingPongBenchmark


def _digest(observable) -> str:
    """sha256 of an observable dict in its canonical JSON form."""
    return hashlib.sha256(
        json.dumps(observable, sort_keys=True).encode()
    ).hexdigest()


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
        """The heap engine executes the exact same order."""

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


# -- golden scenario pins -----------------------------------------------------------


MODES = (
    RoutingMode.ADAPTIVE_0,
    RoutingMode.ADAPTIVE_1,
    RoutingMode.ADAPTIVE_3,
    RoutingMode.MIN_HASH,
    RoutingMode.NMIN_HASH,
)

NOISE = (NoiseLevel.NONE, NoiseLevel.NONE, NoiseLevel.LIGHT, NoiseLevel.MODERATE)


def _run_scenario(seed: int, sim: Optional[Simulator] = None) -> dict:
    """One seeded traffic scenario on ``sim`` (default: the network's own).

    The scenario generator draws every choice from ``random.Random(seed)``
    *before* touching the network, so the script is fixed by the seed; any
    change in the returned dict is a change in simulated behaviour.
    """
    rng = random.Random(seed)
    config = SimulationConfig.small(seed=1000 + seed)
    network = Network(config, sim=sim)
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
    """Each seeded scenario reproduces the behaviour all engines agreed on.

    24 scenarios spanning routing modes, message sizes, send schedules and
    noise levels.  The pins digest event counts, message timelines, routing
    splits, decision counts, every NIC's counter snapshot and the flits
    forwarded, so any drift in the scheduler, link plane, router, NIC or
    UGAL selector moves at least one of them.
    """

    PINS = (
        "bef18c040167b4b977293f576e37e05005fa9e1fe2026c55ab3cc72b32b67153",
        "1622017ceca7d8fc40b3554ec1e3cda8f3d57c5d1e81ee067827cb8eb668e7ef",
        "eded73271d395e3fc20af1c68a0a62b62c28f6d3a755ac4ff2733faf6ff7a6df",
        "453d463d56eb614ffa4de74d77d0f034ee1a38953ae3571a018e7cf206792566",
        "4523b4ea3137a4a8dfdcefa8bda16a662299b2e7212b9ce7fe92488a42283d62",
        "9d53caa0a69326cead342b183b51c28a61cb0d5ae67146011591d1d1e0ee52c6",
        "78179e773e30dffe4437a84cac6829cc381a0decb69a298533a01fbf1df1a637",
        "86341d78e5d355dad8e0154ca4a73cdf0e4ab20baba3aed91563c28fdacbb577",
        "c8ab3023ae9e6e156a9d7dce54e1f69442fd4ba0003ae6c63bf3f73afca266cd",
        "e723cf6e5373d0c8d740685fe90386e36e16e925ced3e6971658cdbcda8477af",
        "44233d386c17046268592a49ba5df6d57efaeade9a482e251ec65445a752b09c",
        "f321b3d07fe7d0c2d9bd3eb2afde489e9f5ad309a042f285850b0a54af5814d3",
        "a29600e3b679585593f0120c3d009b6918c84ea4d13fb0be9e96a0a92cf4cfc4",
        "2363cdb7ade046bf050b313d2a04d2a330376d412a5510861e34de601bd0479f",
        "85237e345a7eee1801fbfdaceb2e2631cf018583a7da427de8b4002cbaf181d1",
        "de995a0c8caf477bdb99fa638a72f56ac2941bebcc63c3da273264fbff171ed2",
        "7cd277ff43a59c07976f1e34a7481a6308f3b4140d3d153aa9f7fb4a5a3b8c13",
        "23f8cfa5ce8a20f63e180e5899283f2d37066e197b5c507dbb38de0dfa368e8a",
        "a5090210b1afdc876bf869a4e3c65a97e442a6c77fcbba8d31e4fbb46917c602",
        "f034e39fc970fc7a76c0c30d46922fdec9383bd24f65ae972c7ac8bc1878276e",
        "edb3e3424e97e084ec3b86c24013c52b5d7a5aa14b975a9ed51963cf92ca285d",
        "b286c45a7e450fb824de6dc889d9b355eeb2c793d14aeff1c0c4653a02d47150",
        "cde6e394395c6688290d2071e9227e2d24dece05f2ec8eca092d8da07df3174c",
        "bfee712e4798f90fa323916d8403b71a7f7a4ab623f05dbae59cf4e1f1ecbf67",
    )

    @pytest.mark.parametrize("seed", range(24))
    def test_equivalent_scenario(self, seed):
        assert _digest(_run_scenario(seed)) == self.PINS[seed]

    def test_injected_heap_engine_matches_pin(self):
        """``Network(config, sim=...)`` swaps the scheduler, not the result."""
        assert _digest(_run_scenario(0, sim=Simulator())) == self.PINS[0]


class TestSmokePingPongDigest:
    """The pinned smoke noisy ping-pong is reproduced exactly.

    The smoke-scale twin of the benchmark's ``flit-pingpong`` workload:
    MODERATE noise between nodes 0 and last, a 16 KiB (scaled) ping-pong
    with one warmup.  The digest covers everything observable from the
    outside, so any change to the simulated behaviour moves it.
    """

    DIGEST = "5640dc0083c0bef7c8d901beb375e1749c755e1aa90dbeb244537b1a0d28f249"

    def test_pinned_digest(self):
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
        assert _digest(observable) == self.DIGEST


class TestRunSpecStoreEquivalence:
    """A campaign cell's store payload matches the bytes every engine wrote."""

    SPEC = {
        "scenario": "pingpong-placement",
        "params": {"placement": "inter-nodes", "message_kib": 4, "noise": "none"},
    }

    DIGEST = "adf968a37b780bde412b2679d19e1047b43e0a3df2f7f07617bcbbd805c63052"

    def test_identical_store_payloads(self):
        ensure_builtin_scenarios()
        spec = RunSpec.make(self.SPEC["scenario"], self.SPEC["params"])
        payload, _report, _elapsed = execute_spec(spec)
        assert _digest(payload) == self.DIGEST


class TestWideDecisions:
    """A 4+4-candidate UGAL run reproduces its pinned decisions.

    Wider candidate sets than the shipped 2+2 exercise the minimal-first
    tie-break and the repeated-minimal-path score cache over more draws.
    """

    DIGEST = "f30eac2855d1d68a626bf27080ea5dc295b4925a026c3590055dba6eca4eec90"

    def test_wide_candidate_run_matches_pin(self):
        config = SimulationConfig.small(seed=77).with_routing(
            minimal_candidates=4, nonminimal_candidates=4
        )
        network = Network(config)
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
        observable = {
            "events": network.sim.events_executed,
            "timelines": [
                (m.submit_time, m.delivered_time, m.acked_time) for m in messages
            ],
            "routing": [
                (m.minimal_packets, m.nonminimal_packets) for m in messages
            ],
            "decisions": (selector.decisions, selector.minimal_decisions),
        }
        assert _digest(observable) == self.DIGEST


# -- telemetry: queue_depth on sim.run spans ----------------------------------------


class TestSimRunTelemetry:
    @pytest.fixture(autouse=True)
    def _telemetry_off(self):
        disable()
        yield
        disable()

    def test_run_span_reports_live_queue_depth(self):
        network = Network(SimulationConfig.tiny())
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
