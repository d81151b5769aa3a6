"""Built-in scenarios: figure wrappers plus fine-grained sweep grids.

Importing this module populates the registry with

* every per-figure experiment (registered from the ``figure*.py`` modules
  themselves via :func:`repro.campaign.registry.register_figure`), and
* generic parameterized scenarios whose grids the executor can fan out one
  cell at a time — the shape the paper's Figures 3 and 7 sweeps take when
  they are expressed as campaigns instead of bespoke serial loops.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from repro.allocation.policies import (
    AllocationPolicy,
    allocate_inter_blade_pair,
    allocate_inter_chassis_pair,
    allocate_inter_group_pair,
    allocate_intra_blade_pair,
    allocate_scattered,
)
from repro.analysis.interference import format_interference, interference_matrix
from repro.analysis.reporting import BOXPLOT_COLUMNS, Table, boxplot_row
from repro.analysis.stats import summarize
from repro.campaign.registry import scenario
from repro.cluster import ClusterScheduler, JobTrace
from repro.config import SimulationConfig, TopologyConfig
from repro.core.policy import StaticRoutingPolicy
from repro.experiments.harness import ExperimentScale, build_network, compare_policies
from repro.model.base import NetworkModel, build_network_model
from repro.mpi.job import MpiJob
from repro.network.counters import CounterSnapshot
from repro.noise.background import BackgroundTraffic, NoiseLevel
from repro.routing.modes import RoutingMode
from repro.workloads.base import Workload
from repro.workloads.microbench import (
    AllreduceBenchmark,
    AlltoallBenchmark,
    BarrierBenchmark,
    PingPongBenchmark,
)

# Import for the registration side effect: each figure module registers
# itself as a zero-axis scenario.
from repro.experiments import (  # noqa: F401  (imported for side effects)
    figure3,
    figure4,
    figure5,
    figure7,
    figure8,
    figure9,
    figure10,
    model_validation,
    table1,
)


def ensure_registered() -> None:
    """No-op: importing this module performs every registration."""


#: Placement name -> pair-allocation builder (the Figure 3 vocabulary).
PLACEMENTS: Dict[str, Callable] = {
    "inter-nodes": allocate_intra_blade_pair,
    "inter-blades": allocate_inter_blade_pair,
    "inter-chassis": allocate_inter_chassis_pair,
    "inter-groups": allocate_inter_group_pair,
}


def _pair_allocation(placement: str, scale: ExperimentScale):
    try:
        builder = PLACEMENTS[placement]
    except KeyError:
        raise ValueError(
            f"unknown placement {placement!r} (known: {', '.join(sorted(PLACEMENTS))})"
        ) from None
    return builder(scale.topology())


@scenario(
    name="pingpong-placement",
    description="ping-pong latency/dispersion vs. placement, size and noise",
    axes={
        "placement": tuple(PLACEMENTS),
        "message_kib": (4, 16),
        "noise": ("none", "light"),
    },
    tags=("sweep", "microbench"),
)
def run_pingpong_placement(
    scale: ExperimentScale, *, placement: str, message_kib: int, noise: str
) -> Dict:
    """One grid cell of the Figure-3-style allocation sweep."""
    allocation = _pair_allocation(placement, scale)
    message_bytes = scale.scaled_size(int(message_kib) * 1024)
    network = build_network(scale)
    background = BackgroundTraffic.for_level(
        network,
        list(allocation),
        NoiseLevel(noise),
        max_nodes=16,
        name=f"pp-{placement}",
    )
    if background is not None:
        background.start()
    job = MpiJob(network, list(allocation), name=f"pp-{placement}")
    workload = PingPongBenchmark(
        size_bytes=message_bytes,
        iterations=scale.pingpong_repetitions,
        warmup=1,
    )
    result = workload.run(job)
    if background is not None:
        background.stop()
    stats = summarize(result.iteration_times)
    table = Table(
        title=f"ping-pong {message_bytes} B, {placement}, noise={noise}",
        columns=BOXPLOT_COLUMNS,
    )
    table.add_row(*boxplot_row(placement, result.iteration_times))
    return {
        "metrics": {"median": stats.median, "qcd": stats.qcd, "mean": stats.mean},
        "data": {
            "message_bytes": message_bytes,
            "iteration_times": list(result.iteration_times),
        },
        "report": table.render(),
    }


@scenario(
    name="routing-mode-pingpong",
    description="static routing modes vs. placement on a large ping-pong",
    axes={
        "placement": ("intra-group", "inter-groups"),
        "mode": tuple(mode.value for mode in RoutingMode),
        "message_kib": (32,),
    },
    tags=("sweep", "routing"),
)
def run_routing_mode(
    scale: ExperimentScale, *, placement: str, mode: str, message_kib: int
) -> Dict:
    """One grid cell of the Figure-7-style routing sweep."""
    if placement == "intra-group":
        allocation = allocate_inter_chassis_pair(scale.topology())
    elif placement == "inter-groups":
        allocation = allocate_inter_group_pair(scale.topology())
    else:
        raise ValueError(f"unknown placement {placement!r}")
    routing_mode = RoutingMode(mode)
    message_bytes = scale.scaled_size(int(message_kib) * 1024)
    network = build_network(scale)
    background = BackgroundTraffic.for_level(
        network,
        list(allocation),
        scale.noise_level,
        max_nodes=16,
        name=f"rm-{placement}",
    )
    if background is not None:
        background.start()
    job = MpiJob(
        network,
        list(allocation),
        policy_factory=lambda: StaticRoutingPolicy(routing_mode),
        name=f"rm-{placement}-{mode}",
    )
    sender = network.nic(allocation[0])
    before = sender.counters.snapshot()
    workload = PingPongBenchmark(
        size_bytes=message_bytes,
        iterations=scale.pingpong_repetitions,
        warmup=1,
    )
    result = workload.run(job)
    delta = sender.counters.snapshot().delta(before)
    if background is not None:
        background.stop()
    stats = summarize(result.iteration_times)
    return {
        "metrics": {
            "median": stats.median,
            "qcd": stats.qcd,
            "stall_ratio": delta.stall_ratio,
            "avg_packet_latency": delta.avg_packet_latency,
        },
        "data": {
            "message_bytes": message_bytes,
            "iteration_times": list(result.iteration_times),
        },
        "report": (
            f"{placement} / {mode} / {message_bytes} B: "
            f"median {stats.median:.0f} cycles, QCD {stats.qcd:.4f}, "
            f"s {delta.stall_ratio:.4f}, L {delta.avg_packet_latency:.1f}"
        ),
    }


def _workload_factory(
    name: str, scale: ExperimentScale
) -> Callable[[], Workload]:
    if name == "pingpong":
        return lambda: PingPongBenchmark(
            size_bytes=scale.scaled_size(16 * 1024),
            iterations=scale.iterations,
            pingpongs_per_iteration=4,
        )
    if name == "allreduce":
        return lambda: AllreduceBenchmark(
            elements=max(8, int(512 * scale.message_scale)),
            iterations=scale.iterations,
        )
    if name == "alltoall":
        return lambda: AlltoallBenchmark(
            size_bytes=scale.scaled_size(1024), iterations=scale.iterations
        )
    if name == "barrier":
        return lambda: BarrierBenchmark(
            barriers_per_iteration=8, iterations=scale.iterations
        )
    raise ValueError(f"unknown workload {name!r}")


@scenario(
    name="policy-comparison",
    description="Default vs. HighBias vs. AppAware on a scattered allocation",
    axes={
        "workload": ("pingpong", "allreduce", "alltoall", "barrier"),
        "noise": ("light",),
    },
    tags=("sweep", "policy"),
)
def run_policy_comparison(scale: ExperimentScale, *, workload: str, noise: str) -> Dict:
    """One (workload, noise) cell of a Figure-8-style policy comparison."""
    topo = scale.topology()
    rng = random.Random(scale.seed)
    allocation = allocate_scattered(
        topo, scale.small_job_nodes, rng, name=f"pc-{workload}"
    )
    comparison = compare_policies(
        scale,
        allocation,
        _workload_factory(workload, scale),
        noise_level=NoiseLevel(noise),
    )
    normalized = comparison.normalized_medians()
    fraction = comparison.app_aware_fraction_default()
    metrics = {f"normalized.{name}": value for name, value in normalized.items()}
    if fraction is not None:
        metrics["app_aware_default_fraction"] = fraction
    table = Table(
        title=f"policy comparison — {workload}, noise={noise}",
        columns=["policy", "normalized median"],
    )
    for name, value in normalized.items():
        table.add_row(name, value)
    return {
        "metrics": metrics,
        "data": {"best": comparison.best_policy(), "allocation": allocation.name},
        "report": table.render() + f"\nbest: {comparison.best_policy()}",
    }


# -- large-topology scenarios (flow backend only) -----------------------------------
#
# These register system sizes the paper measured on (1000+ nodes of Piz
# Daint) that the pure-Python flit simulator cannot reach in reasonable
# time.  Their runners pin the flow backend, and the planner honours the
# "flow-only" tag by expanding their RunSpecs with backend="flow" no
# matter what --backend the campaign requested, so spec hashes and cache
# entries are labelled truthfully.  `repro campaign list --tag flow-only`
# makes the restriction discoverable.


def _large_dragonfly(seed: int) -> SimulationConfig:
    """An 11-group, 1056-node Dragonfly — Piz-Daint-like scale."""
    return SimulationConfig(
        topology=TopologyConfig(
            num_groups=11,
            chassis_per_group=6,
            blades_per_chassis=4,
            nodes_per_router=4,
        ),
        seed=seed,
        backend="flow",
    )


def _drive_until(network: NetworkModel, done: Callable[[], bool], max_events: int = 50_000_000) -> None:
    """Step the simulator until ``done()`` (noise traffic may never drain)."""
    executed = 0
    while not done():
        if not network.sim.step():
            raise RuntimeError("simulation ran out of events before completion")
        executed += 1
        if executed > max_events:
            raise RuntimeError(f"exceeded {max_events} events")


@scenario(
    name="bisection-stress-large",
    description="1056-node bisection exchange on the flow backend "
    "(infeasible at flit granularity)",
    axes={
        "mode": ("ADAPTIVE_0", "ADAPTIVE_3", "MIN_HASH"),
        "message_kib": (64,),
        "noise": ("none", "moderate"),
    },
    tags=("sweep", "flow-only", "large"),
)
def run_bisection_stress_large(
    scale: ExperimentScale, *, mode: str, message_kib: int, noise: str
) -> Dict:
    """Every node exchanges with its bisection partner, in waves.

    The allocation spans all 1056 nodes; pairs are matched across the
    group bisection so every message crosses optical links.  Waves of 64
    pairs keep the number of concurrent fluid flows bounded.
    """
    config = _large_dragonfly(scale.seed)
    network = build_network_model(config)
    routing_mode = RoutingMode(mode)
    message_bytes = scale.scaled_size(int(message_kib) * 1024)
    half = network.num_nodes // 2
    pairs: List[Tuple[int, int]] = [(n, half + n) for n in range(half)]
    rng = random.Random(scale.seed)
    rng.shuffle(pairs)
    # Smoke scale exercises a slice of the machine; paper scale all of it.
    if scale.name == "smoke":
        pairs = pairs[: max(32, len(pairs) // 8)]

    background = BackgroundTraffic.for_level(
        network,
        [node for pair in pairs for node in pair],
        NoiseLevel(noise),
        max_nodes=64,
        name="bisection-noise",
    )
    if background is not None:
        background.start()

    wave_size = 64
    times: List[int] = []
    state = {"pending": 0, "next": 0}

    def _on_acked(message) -> None:
        state["pending"] -= 1
        times.append(network.sim.now - message.submit_time)
        if state["pending"] == 0 and state["next"] < len(pairs):
            _send_wave()

    def _send_wave() -> None:
        wave = pairs[state["next"] : state["next"] + wave_size]
        state["next"] += len(wave)
        state["pending"] += 2 * len(wave)
        for a, b in wave:
            network.send(a, b, message_bytes, routing_mode=routing_mode, on_acked=_on_acked)
            network.send(b, a, message_bytes, routing_mode=routing_mode, on_acked=_on_acked)

    _send_wave()
    _drive_until(network, lambda: state["pending"] == 0 and state["next"] >= len(pairs))
    if background is not None:
        background.stop()

    stats = summarize(times)
    total = CounterSnapshot.total(
        network.nic(node).counters for pair in pairs for node in pair
    )
    return {
        "metrics": {
            "median": stats.median,
            "p95": stats.whisker_high,
            "qcd": stats.qcd,
            "stall_ratio": total.stall_ratio,
            "avg_packet_latency": total.avg_packet_latency,
        },
        "data": {
            "nodes": network.num_nodes,
            "pairs": len(pairs),
            "message_bytes": message_bytes,
            "backend": network.backend_name,
        },
        "report": (
            f"bisection {len(pairs)} pair(s) on {network.num_nodes} nodes, "
            f"{mode}/{noise}: median {stats.median:.0f} cycles, "
            f"s {total.stall_ratio:.3f}, L {total.avg_packet_latency:.1f}"
        ),
    }


@scenario(
    name="bisection-full",
    description="528-pair no-wave full-bisection exchange on 1056 nodes "
    "(needs the vectorized flow solver's concurrency ceiling)",
    axes={
        "mode": ("ADAPTIVE_0", "ADAPTIVE_3", "MIN_HASH"),
        "message_kib": (64,),
        "noise": ("none", "moderate"),
    },
    tags=("sweep", "flow-only", "large"),
)
def run_bisection_full(
    scale: ExperimentScale, *, mode: str, message_kib: int, noise: str
) -> Dict:
    """Every bisection pair exchanges simultaneously — no waves.

    The stress shape `bisection-stress-large` throttles into waves of 64
    pairs to keep the concurrent flow count near what the pure-Python
    solver tolerated.  Here all 528 pairs (1056 messages, each spread over
    several paths — thousands of concurrent fluid flows) are submitted in
    the same cycle, which is the paper's actual full-machine bisection
    pattern and the workload the vectorized incremental solver exists for.
    """
    config = _large_dragonfly(scale.seed)
    network = build_network_model(config)
    routing_mode = RoutingMode(mode)
    message_bytes = scale.scaled_size(int(message_kib) * 1024)
    half = network.num_nodes // 2
    pairs: List[Tuple[int, int]] = [(n, half + n) for n in range(half)]

    background = BackgroundTraffic.for_level(
        network,
        [node for pair in pairs for node in pair],
        NoiseLevel(noise),
        max_nodes=64,
        name="bisection-full-noise",
    )
    if background is not None:
        background.start()

    times: List[int] = []
    state = {"pending": 2 * len(pairs)}

    def _on_acked(message) -> None:
        state["pending"] -= 1
        times.append(network.sim.now - message.submit_time)

    for a, b in pairs:
        network.send(a, b, message_bytes, routing_mode=routing_mode, on_acked=_on_acked)
        network.send(b, a, message_bytes, routing_mode=routing_mode, on_acked=_on_acked)
    peak_flows = network.active_flows
    _drive_until(network, lambda: state["pending"] == 0)
    if background is not None:
        background.stop()

    stats = summarize(times)
    total = CounterSnapshot.total(
        network.nic(node).counters for pair in pairs for node in pair
    )
    solver_stats = getattr(network, "solver_stats", {})
    return {
        "metrics": {
            "median": stats.median,
            "p95": stats.whisker_high,
            "qcd": stats.qcd,
            "stall_ratio": total.stall_ratio,
            "avg_packet_latency": total.avg_packet_latency,
            "peak_flows": float(peak_flows),
        },
        "data": {
            "nodes": network.num_nodes,
            "pairs": len(pairs),
            "message_bytes": message_bytes,
            "backend": network.backend_name,
            "solver": getattr(network, "solver_kind", None),
            "solver_stats": dict(solver_stats),
        },
        "report": (
            f"full bisection, {len(pairs)} pairs x2 on {network.num_nodes} nodes "
            f"({peak_flows} concurrent flows), {mode}/{noise}: "
            f"median {stats.median:.0f} cycles, s {total.stall_ratio:.3f}, "
            f"L {total.avg_packet_latency:.1f}"
        ),
    }


def _cluster_trace_jobs(scale: ExperimentScale, jobs: int) -> int:
    """Smoke scale replays a slice of the trace; paper scale all of it."""
    return max(16, int(jobs) // 8) if scale.name == "smoke" else int(jobs)


@scenario(
    name="cluster-trace",
    description="multi-tenant trace replay on 1056 nodes: per-job slowdown, "
    "fairness and workload interference (flow backend)",
    axes={
        "jobs": (200,),
        "policy": ("contiguous", "round_robin_groups", "scattered"),
        "mode": ("ADAPTIVE_3", "MIN_HASH"),
        "load": ("light", "heavy"),
    },
    tags=("sweep", "flow-only", "large", "cluster"),
)
def run_cluster_trace(
    scale: ExperimentScale, *, jobs: int, policy: str, mode: str, load: str
) -> Dict:
    """One cell of the multi-tenant replay sweep.

    A seeded synthetic trace (hundreds of arrivals) replays through the
    FIFO :class:`~repro.cluster.scheduler.ClusterScheduler` on one shared
    1056-node flow network; every job's slowdown is measured against its
    own isolated baseline (one per job), and the per-job rows feed the
    interference-matrix report.
    """
    config = _large_dragonfly(scale.seed)
    network = build_network_model(config)
    n_jobs = _cluster_trace_jobs(scale, jobs)
    trace = JobTrace.synthetic(scale.seed, n_jobs, load=load, max_nodes=32)
    scheduler = ClusterScheduler(
        network,
        trace,
        allocation_policy=AllocationPolicy(policy),
        routing_mode=RoutingMode(mode),
        name=f"ct-{policy}-{mode}-{load}",
        baseline_factory=lambda: build_network_model(config),
    )
    result = scheduler.replay()
    rows = result.job_rows()
    matrix = interference_matrix(rows)
    return {
        "metrics": result.metrics(),
        "data": {
            "jobs": rows,
            "trace": trace.describe(),
            "nodes": network.num_nodes,
            "backend": network.backend_name,
            "interference": matrix,
        },
        "report": (
            result.slowdown_table()
            + "\n\n"
            + format_interference(matrix)
        ),
    }


@scenario(
    name="noise-sweep-large",
    description="wide noise sweep around a scattered job on a 1056-node "
    "machine (flow backend)",
    axes={
        "noise": ("none", "light", "moderate", "heavy"),
        "noise_nodes": (64, 256),
        "workload": ("pingpong", "allreduce"),
    },
    tags=("sweep", "flow-only", "large", "noise"),
)
def run_noise_sweep_large(
    scale: ExperimentScale, *, noise: str, noise_nodes: int, workload: str
) -> Dict:
    """A 64-rank job measured under machine-wide background traffic."""
    config = _large_dragonfly(scale.seed)
    network = build_network_model(config)
    rng = random.Random(scale.seed)
    ranks = 16 if scale.name == "smoke" else 64
    allocation = allocate_scattered(
        config.topology, ranks, rng, name=f"nsl-{workload}"
    )
    level = NoiseLevel(noise)
    background = BackgroundTraffic.for_level(
        network,
        list(allocation),
        level,
        max_nodes=int(noise_nodes),
        fraction_of_free_nodes=0.9,
        name="wide-noise",
    )
    if background is not None:
        background.start()
    job = MpiJob(network, list(allocation), name=f"nsl-{workload}-{noise}")
    bench = _workload_factory(workload, scale)()
    result = bench.run(job)
    if background is not None:
        background.stop()
    stats = summarize(result.iteration_times)
    return {
        "metrics": {
            "median": stats.median,
            "qcd": stats.qcd,
            "noise_messages": float(background.messages_sent if background else 0),
        },
        "data": {
            "nodes": network.num_nodes,
            "ranks": ranks,
            "noise_nodes": int(noise_nodes) if background else 0,
            "backend": network.backend_name,
            "iteration_times": list(result.iteration_times),
        },
        "report": (
            f"{workload} x{ranks} ranks on {network.num_nodes} nodes, "
            f"noise={noise}({noise_nodes}): median {stats.median:.0f} cycles, "
            f"QCD {stats.qcd:.4f}"
        ),
    }
