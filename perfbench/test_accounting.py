"""Tests of the benchmark's own accounting.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import random

import run as bench_run
from perf_layers import Capture, layer_metrics, layer_probes
from perf_trace import Tracer, leftover_wrappers, traced


class StepClock:
    """A clock that returns preset readings, one per call."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def test_nested_span_self_time_excludes_children():
    tracer = Tracer(clock=StepClock(0.0, 1.0, 4.0, 5.0, 5.5, 10.0))
    inner = tracer.wrap(lambda: None, "inner", "b")

    def body():
        inner()
        inner()

    outer = tracer.wrap(body, "outer", "a")
    outer()
    # outer spans 0..10; its children span 1..4 and 5..5.5.
    assert tracer.stats["outer"].total_s == 10.0
    assert tracer.stats["outer"].self_s == 10.0 - 3.0 - 0.5
    assert tracer.stats["inner"].calls == 2
    assert tracer.stats["inner"].self_s == 3.5
    assert tracer.layer_self_s("a") == 6.5


def test_raised_exceptions_are_counted_and_spans_closed():
    tracer = Tracer()

    def fail():
        raise ValueError("full")

    wrapped = tracer.wrap(fail, "alloc", "allocation")
    for _ in range(2):
        try:
            wrapped()
        except ValueError:
            pass
    assert tracer.stats["alloc"].raised == 2
    assert tracer._stack == []


def _tiny_flit_op():
    from repro.experiments.harness import ExperimentScale
    from repro.model import build_network_model
    from repro.mpi.job import MpiJob
    from repro.workloads.microbench import PingPongBenchmark

    scale = ExperimentScale.smoke()
    network = build_network_model(scale.simulation_config().with_backend("flit"))
    job = MpiJob(network, [0, network.num_nodes - 1], name="tiny")
    PingPongBenchmark(size_bytes=1024, iterations=2, warmup=0).run(job)


def _tiny_flow_op():
    from repro.cluster import ClusterScheduler, JobTrace
    from repro.config import SimulationConfig, TopologyConfig
    from repro.model import build_network_model

    config = SimulationConfig(
        topology=TopologyConfig(
            num_groups=3, chassis_per_group=2, blades_per_chassis=2, nodes_per_router=2
        ),
        seed=3,
        backend="flow",
    )
    trace = JobTrace.synthetic(5, 6, load="heavy", max_nodes=8)
    ClusterScheduler(
        build_network_model(config), trace,
        baseline_factory=lambda: build_network_model(config),
    ).replay()


def _traced_counts():
    capture = Capture()
    probes = layer_probes(capture)
    tracer = Tracer()
    with traced(tracer, probes):
        _tiny_flit_op()
        _tiny_flow_op()
    return probes, layer_metrics(tracer, capture, [], 1.0, 1.0)


def test_wrappers_fully_removed_after_a_traced_run():
    from repro.allocation import policies
    from repro.cluster import scheduler
    from repro.network.link import Link
    from repro.sim.engine import Simulator

    originals = (Link.enqueue, Simulator.run, policies.allocate, scheduler.allocate)
    probes, metrics = _traced_counts()
    assert metrics["network.link.enqueue.calls"] > 0
    assert metrics["allocation.allocate.calls"] > 0
    assert leftover_wrappers() == []
    assert (Link.enqueue, Simulator.run, policies.allocate, scheduler.allocate) == originals


def test_counts_identical_across_two_traced_runs():
    _, first = _traced_counts()
    _, second = _traced_counts()
    counted = [
        name for name in first
        if name.endswith(".calls") or name == "sim.events"
        or (name.startswith("model.flow.solver.") and not name.endswith("self_s"))
    ]
    assert len(counted) > 10
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}
    assert first["model.flow.solver.solve.calls"] > 0
    assert first["routing.ugal.select.calls"] > 0


def test_distinct_pair_ratio_on_a_tiny_topology():
    from repro.config import TopologyConfig
    from repro.topology.dragonfly import DragonflyTopology
    from repro.topology.paths import PathSampler

    capture = Capture()
    probes = [p for p in layer_probes(capture) if p.name == "topology.paths"]
    tracer = Tracer()
    topology = DragonflyTopology(
        TopologyConfig(num_groups=3, chassis_per_group=2, blades_per_chassis=2)
    )
    with traced(tracer, probes):
        sampler = PathSampler(topology, random.Random(1))
        sampler.minimal(0, 5)
        sampler.minimal(0, 5)
        sampler.minimal_hops(0, 5)
        sampler.minimal(1, 9)
    metrics = layer_metrics(tracer, capture, [], 1.0, 1.0)
    assert metrics["topology.paths.calls"] == 4
    assert metrics["topology.paths.distinct_pair_ratio"] == 2 / 4


def test_host_factor_scales_every_time_metric():
    op = bench_run.OpSample(setup_cpu=0.2, run_cpu=2.0, run_wall=1.0, parts=[],
                            jobs=4, cells=2, factor=0.5)
    setups = [(0.2, 0.5)]
    scaled = bench_run.end_to_end(setups, [op])
    assert (scaled["setup_s"], scaled["run_cpu_s"], scaled["jobs_per_s"]) == (0.1, 1.0, 4.0)
    raw = bench_run.end_to_end(setups, [op], scaled=False)
    assert (raw["setup_s"], raw["run_cpu_s"], raw["cells_per_s"]) == (0.2, 2.0, 2.0)
    reference = bench_run.REFERENCE_CALIBRATION_S
    assert bench_run.host_factor(reference, reference) == 1.0
    slow = bench_run.host_factor(4 * reference, 4 * reference)
    assert slow == 0.25 ** bench_run.HOST_FACTOR_EXPONENT


def test_setup_ends_at_the_first_simulated_event():
    class Tiny:
        name = "tiny"

        @staticmethod
        def parts(seed):
            return [lambda clock: _tiny_flit_op() or "ran"]

    bench = bench_run.Bench(Tiny, 0)
    clock, cpu, _, raws = bench.run_op(setup_only=True)
    assert raws == [] and 0.0 < clock.setup_cpu <= cpu
    clock, cpu, _, raws = bench.run_op()
    assert raws == ["ran"] and 0.0 < clock.setup_cpu < cpu
    assert leftover_wrappers() == []
