"""Fair-share solver engines: edge cases and reference-vs-vectorized parity.

The vectorized engine (`repro/model/flow/vectorized.py`) must compute the
same max-min allocation as the pure-Python reference solver — the unique
water-filling fixed point — within an EPS-scaled tolerance, under both
from-scratch and incremental (add/remove churn) solving.
"""

from __future__ import annotations

import random

import pytest

from repro.config import SimulationConfig
from repro.model.flow.engine import (
    ENGINE_KINDS,
    ReferenceFairShareEngine,
    SolverEngineError,
    default_engine_kind,
    make_engine,
)
from repro.model.flow.network import FlowNetwork
from repro.model.flow.solver import EPS, FairShareSolver, FlowState

np = pytest.importorskip("numpy")

#: Relative tolerance for cross-engine rate comparisons.
RATE_RTOL = 1e-6


def _assert_rates_match(reference_flows, engine, engine_flows):
    for ref, mirrored in zip(reference_flows, engine_flows):
        got = engine.rate_of(mirrored)
        assert got == pytest.approx(ref.rate, rel=RATE_RTOL, abs=1e-9), (
            f"flow {ref.flow_id}: reference {ref.rate} vs vectorized {got}"
        )


def _random_instance(rng, nlinks=None, nflows=None):
    """A random heterogeneous-capacity instance, as (capacities, flow specs)."""
    nlinks = nlinks or rng.randint(2, 24)
    capacities = {
        f"l{i}": rng.choice([1e-3, 0.333, 1.0, 4.0, 1e6]) for i in range(nlinks)
    }
    specs = []
    for fid in range(nflows or rng.randint(1, 80)):
        links = tuple(
            rng.sample(sorted(capacities), rng.randint(1, min(6, nlinks)))
        )
        cap = rng.choice([float("inf"), 0.25, 0.5, 2.0])
        specs.append((fid, links, cap))
    return capacities, specs


class TestEngineSelection:
    def test_known_kinds(self):
        assert ENGINE_KINDS == ("reference", "vectorized")

    def test_make_engine_kinds(self):
        ref = make_engine("reference", lambda key: 1.0)
        vec = make_engine("vectorized", lambda key: 1.0)
        assert ref.kind == "reference"
        assert vec.kind == "vectorized"

    def test_unknown_kind_raises(self):
        with pytest.raises(SolverEngineError, match="unknown flow-solver engine"):
            make_engine("quantum", lambda key: 1.0)

    def test_default_is_vectorized_with_numpy(self):
        assert default_engine_kind() == "vectorized"
        assert FlowNetwork(SimulationConfig.tiny()).solver_kind == "vectorized"

    def test_network_solver_arg(self):
        for kind in ENGINE_KINDS:
            network = FlowNetwork(SimulationConfig.tiny(), solver=kind)
            assert network.solver_kind == kind


class TestSolverEdgeCases:
    """The satellite edge cases, asserted on both implementations."""

    def _both(self, capacities, specs):
        """Solve the same instance on both engines; return (ref_flows, vec, vec_flows)."""
        reference = FairShareSolver(capacities.__getitem__)
        ref_flows = [FlowState(f, links, 100.0, cap=cap) for f, links, cap in specs]
        reference.solve(ref_flows)
        engine = make_engine("vectorized", capacities.__getitem__)
        vec_flows = [FlowState(f, links, 100.0, cap=cap) for f, links, cap in specs]
        for flow in vec_flows:
            engine.add_flow(flow)
        engine.solve()
        return ref_flows, engine, vec_flows

    def test_cap_hits_exactly_at_link_saturation(self):
        """A flow whose cap equals its fair share at the saturating step."""
        capacities = {"a": 1.0}
        specs = [(0, ("a",), 0.5), (1, ("a",), float("inf"))]
        ref_flows, engine, vec_flows = self._both(capacities, specs)
        assert ref_flows[0].rate == pytest.approx(0.5)
        assert ref_flows[1].rate == pytest.approx(0.5)
        _assert_rates_match(ref_flows, engine, vec_flows)

    def test_heterogeneous_capacities_do_not_misfreeze(self):
        """Relative saturation tolerance: a huge-capacity link must still
        saturate cleanly (absolute EPS never got within 1e-9 of empty)."""
        capacities = {"huge": 1e6, "tiny": 1e-3}
        specs = [
            (0, ("huge",), float("inf")),
            (1, ("huge", "tiny"), float("inf")),
            (2, ("tiny",), float("inf")),
        ]
        ref_flows, engine, vec_flows = self._both(capacities, specs)
        # max-min: the tiny link splits between flows 1 and 2; flow 0
        # absorbs the rest of the huge link.
        assert ref_flows[1].rate == pytest.approx(5e-4)
        assert ref_flows[2].rate == pytest.approx(5e-4)
        assert ref_flows[0].rate == pytest.approx(1e6 - 5e-4)
        _assert_rates_match(ref_flows, engine, vec_flows)

    def test_zero_rate_flows_excluded_from_completion_horizon(self):
        solver = FairShareSolver(lambda key: 1.0)
        moving = FlowState(0, ("a",), 10.0)
        stuck = FlowState(1, ("b",), 10.0)
        solver.solve([moving, stuck])
        stuck.rate = 0.0  # e.g. a flow whose links were fully saturated
        assert solver.completion_horizon([moving, stuck]) == pytest.approx(10.0)
        assert solver.completion_horizon([stuck]) == float("inf")

        engine = make_engine("vectorized", lambda key: 1.0)
        m2 = FlowState(0, ("a",), 10.0)
        engine.add_flow(m2)
        assert engine.completion_horizon() == float("inf")  # not yet solved
        engine.solve()
        assert engine.completion_horizon() == pytest.approx(10.0)

    def test_single_flow_fast_path(self):
        engine = make_engine("vectorized", {"a": 2.0, "b": 0.5}.__getitem__)
        flow = FlowState(0, ("a", "b"), 10.0, cap=5.0)
        engine.add_flow(flow)
        engine.solve()
        assert engine.rate_of(flow) == pytest.approx(0.5)
        # The fast path must short-circuit: exactly one fill "round".
        assert engine.stats["rounds"] == 1
        capped = FlowState(1, ("c",), 10.0, cap=0.25)
        engine2 = make_engine("vectorized", {"c": 2.0}.__getitem__)
        engine2.add_flow(capped)
        engine2.solve()
        assert engine2.rate_of(capped) == pytest.approx(0.25)

    def test_single_flow_duplicate_link_occurrence(self):
        """A flow crossing the same link twice halves its share, like the
        reference's per-occurrence counting."""
        capacities = {"a": 1.0}
        reference = FairShareSolver(capacities.__getitem__)
        ref_flow = FlowState(0, ("a", "a"), 10.0)
        reference.solve([ref_flow])
        engine = make_engine("vectorized", capacities.__getitem__)
        vec_flow = FlowState(0, ("a", "a"), 10.0)
        engine.add_flow(vec_flow)
        engine.solve()
        assert ref_flow.rate == pytest.approx(0.5)
        assert engine.rate_of(vec_flow) == pytest.approx(0.5)

    def test_drained_syncs_attributes(self):
        engine = make_engine("vectorized", lambda key: 1.0)
        flow = FlowState(0, ("a",), 5.0)
        engine.add_flow(flow)
        engine.solve()
        engine.advance(5.0)
        drained = engine.drained(1e-6)
        assert drained == [flow]
        assert flow.remaining == pytest.approx(0.0, abs=1e-9)
        assert flow.rate == pytest.approx(1.0)

    def test_remove_flow_releases_bandwidth(self):
        engine = make_engine("vectorized", lambda key: 1.0)
        first = FlowState(0, ("a",), 10.0)
        second = FlowState(1, ("a",), 10.0)
        engine.add_flow(first)
        engine.add_flow(second)
        engine.solve()
        assert engine.rate_of(first) == pytest.approx(0.5)
        engine.remove_flow(second)
        engine.solve()
        assert engine.rate_of(first) == pytest.approx(1.0)
        assert len(engine) == 1

    def test_linkless_flow_gets_cap_rate(self):
        """A flow crossing no links is bounded only by its cap — on both
        engines (regression: it joined no component, so it never solved)."""
        reference = ReferenceFairShareEngine(lambda key: 1.0)
        ref_flow = FlowState(0, (), 10.0, cap=2.0)
        reference.add_flow(ref_flow)
        reference.solve()
        assert ref_flow.rate == pytest.approx(2.0)

        engine = make_engine("vectorized", lambda key: 1.0)
        vec_flow = FlowState(0, (), 10.0, cap=2.0)
        engine.add_flow(vec_flow)
        engine.solve()
        assert engine.rate_of(vec_flow) == pytest.approx(2.0)
        assert engine.completion_horizon() == pytest.approx(5.0)

    def test_solve_without_changes_is_skipped(self):
        engine = make_engine("vectorized", lambda key: 1.0)
        engine.add_flow(FlowState(0, ("a",), 10.0))
        engine.solve()
        before = dict(engine.stats)
        engine.solve()
        assert engine.stats["skipped"] == before["skipped"] + 1
        assert engine.stats["rounds"] == before["rounds"]


class TestReferenceVectorizedEquivalence:
    """Randomized property test: both engines find the same fixed point."""

    @pytest.mark.parametrize("seed", [7, 21, 1999, 424242])
    def test_from_scratch_equivalence(self, seed):
        rng = random.Random(seed)
        for _ in range(15):
            capacities, specs = _random_instance(rng)
            reference = FairShareSolver(capacities.__getitem__)
            ref_flows = [FlowState(f, links, 100.0, cap=cap) for f, links, cap in specs]
            reference.solve(ref_flows)
            engine = make_engine("vectorized", capacities.__getitem__)
            vec_flows = [FlowState(f, links, 100.0, cap=cap) for f, links, cap in specs]
            for flow in vec_flows:
                engine.add_flow(flow)
            engine.solve()
            _assert_rates_match(ref_flows, engine, vec_flows)

    @pytest.mark.parametrize("seed", [13, 99])
    def test_incremental_equivalence_under_churn(self, seed):
        """Incremental component re-solves match a fresh full reference
        solve after every membership change."""
        rng = random.Random(seed)
        capacities = {f"l{i}": rng.choice([0.5, 1.0, 3.0]) for i in range(30)}
        engine = make_engine("vectorized", capacities.__getitem__)
        reference = FairShareSolver(capacities.__getitem__)
        live = {}
        next_id = 0
        for _ in range(150):
            if live and rng.random() < 0.4:
                victim = live.pop(rng.choice(sorted(live)))
                engine.remove_flow(victim)
            else:
                flow = FlowState(
                    next_id,
                    tuple(rng.sample(sorted(capacities), rng.randint(1, 5))),
                    50.0,
                )
                engine.add_flow(flow)
                live[next_id] = flow
                next_id += 1
            engine.solve()
            mirror = [FlowState(f.flow_id, f.links, 50.0, cap=f.cap) for f in live.values()]
            reference.solve(mirror)
            for ref in mirror:
                got = engine.rate_of(live[ref.flow_id])
                assert got == pytest.approx(ref.rate, rel=RATE_RTOL, abs=1e-9)
        # Churn over clustered links must actually exercise the
        # incremental path, not just repeated full solves.
        assert engine.stats["incremental"] > 0

    def test_disjoint_components_solved_independently(self):
        """Flows in untouched components keep their rates bit-identical."""
        capacities = {"a": 1.0, "b": 1.0}
        engine = make_engine("vectorized", capacities.__getitem__)
        left = [FlowState(i, ("a",), 10.0) for i in range(3)]
        right = [FlowState(10 + i, ("b",), 10.0) for i in range(2)]
        for flow in left + right:
            engine.add_flow(flow)
        engine.solve()
        left_rates = [engine.rate_of(f) for f in left]
        assert left_rates == pytest.approx([1 / 3] * 3)
        # Perturb only the "b" component.
        extra = FlowState(99, ("b",), 10.0)
        engine.add_flow(extra)
        engine.solve()
        assert engine.stats["incremental"] >= 1
        assert [engine.rate_of(f) for f in left] == left_rates
        assert [engine.rate_of(f) for f in right] == pytest.approx([1 / 3, 1 / 3])

    def test_reference_engine_matches_bare_solver(self):
        capacities = {"a": 1.0, "b": 2.0}
        engine = ReferenceFairShareEngine(capacities.__getitem__)
        flows = [FlowState(0, ("a", "b"), 10.0), FlowState(1, ("b",), 10.0)]
        for flow in flows:
            engine.add_flow(flow)
        engine.solve()
        assert flows[0].rate == pytest.approx(1.0)
        assert flows[1].rate == pytest.approx(1.0)
        assert engine.completion_horizon() == pytest.approx(10.0)
        engine.advance(10.0)
        assert set(engine.drained(1e-6)) == set(flows)


class TestNetworkEngineParity:
    """The same simulation must produce identical timelines on both engines."""

    def _run(self, kind: str):
        network = FlowNetwork(SimulationConfig.tiny(seed=3), solver=kind)
        events = []
        for src in (0, 1, 2, 3):
            network.send(
                src,
                network.num_nodes - 1 - src,
                16384,
                on_acked=lambda m: events.append((m.src_node, network.sim.now)),
            )
        network.run_until_idle()
        stall = network.nic(0).counters.stall_ratio
        latency = network.nic(0).counters.avg_packet_latency
        return events, network.sim.now, stall, latency

    def test_identical_timeline_across_engines(self):
        ref = self._run("reference")
        vec = self._run("vectorized")
        assert ref[0] == vec[0]
        assert ref[1] == vec[1]
        assert ref[2] == pytest.approx(vec[2], rel=1e-9)
        assert ref[3] == pytest.approx(vec[3], rel=1e-9)

    def test_same_cycle_submissions_coalesce_to_one_solve(self):
        network = FlowNetwork(SimulationConfig.tiny(), solver="vectorized")
        for src in range(4):
            network.send(src, network.num_nodes - 1 - src, 8192)
        # Drain only cycle 0: all four submissions resolve in ONE solve.
        network.sim.run(until=0)
        assert network.solver_stats["solves"] == 1

    def test_completions_and_submissions_coalesce(self):
        """A completion plus a triggered same-cycle send = one more solve."""
        network = FlowNetwork(SimulationConfig.tiny(), solver="vectorized")
        sent = []

        def chain(message):
            if len(sent) < 3:
                sent.append(message)
                network.send(0, network.num_nodes - 1, 4096, on_acked=chain)

        network.send(0, network.num_nodes - 1, 4096, on_acked=chain)
        network.run_until_idle()
        # Each exchange contributes at most two solving cycles (submission
        # cycle + drain cycle); the historic behaviour solved once per
        # completion *and* once per submission *and* once per drained flow.
        assert network.solver_stats["solves"] <= 2 * (len(sent) + 1) + 1


class _CheckingEngine:
    """Engine proxy: after every solve, re-derive all rates from scratch.

    Wraps the network's real engine; each ``solve()`` delegates, then
    mirrors the live flow set into fresh :class:`FlowState` instances,
    solves them with the reference :class:`FairShareSolver`, and demands
    the engine's incremental answer match the from-scratch fixed point.
    """

    def __init__(self, inner, capacity_of):
        self._inner = inner
        self._reference = FairShareSolver(capacity_of)
        self._live = {}
        self.checks = 0

    def add_flow(self, flow):
        self._inner.add_flow(flow)
        self._live[flow.flow_id] = flow

    def remove_flow(self, flow):
        self._inner.remove_flow(flow)
        del self._live[flow.flow_id]

    def solve(self):
        self._inner.solve()
        mirror = [
            FlowState(f.flow_id, f.links, 1.0, cap=f.cap)
            for f in self._live.values()
        ]
        self._reference.solve(mirror)
        for ref in mirror:
            got = self._inner.rate_of(self._live[ref.flow_id])
            assert got == pytest.approx(ref.rate, rel=RATE_RTOL, abs=1e-9), (
                f"flow {ref.flow_id} after churn: "
                f"reference {ref.rate} vs engine {got}"
            )
        self.checks += 1

    def __len__(self):
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestSchedulerDrivenChurn:
    """Multi-tenant replays churn the flow set as jobs start and stop.

    The cluster scheduler's arrival/departure pattern (bursts of flows
    appearing when a job is admitted, draining when it completes, with
    admissions triggered *inside* completion handling) is the adversarial
    shape for the incremental solver: whole connected components appear
    and vanish in the same cycle.  Every re-solve along a real replay must
    still land on the from-scratch max-min fixed point.
    """

    def _replay_checked(self, kind):
        from repro.cluster import ClusterScheduler, JobTrace
        from repro.config import TopologyConfig

        config = SimulationConfig(
            topology=TopologyConfig(
                num_groups=3,
                chassis_per_group=2,
                blades_per_chassis=2,
                nodes_per_router=2,
            ),
            seed=5,
            backend="flow",
        )
        network = FlowNetwork(config, solver=kind)
        checker = _CheckingEngine(network._engine, network._capacity_of)
        network._engine = checker
        trace = JobTrace.synthetic(5, 12, load="heavy", max_nodes=8)
        scheduler = ClusterScheduler(network, trace)
        result = scheduler.replay()
        return checker, scheduler, result

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_every_resolve_matches_from_scratch(self, kind):
        checker, scheduler, result = self._replay_checked(kind)
        assert checker.checks > 20  # the replay actually churned
        assert all(r.finish_time is not None for r in result.records)
        assert scheduler.occupied_nodes == ()
        assert len(checker._live) == 0  # every flow was removed again

    def test_replay_exercises_incremental_path(self):
        checker, _, _ = self._replay_checked("vectorized")
        assert checker.stats["incremental"] > 0
