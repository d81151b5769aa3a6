"""The benchmark's workloads.

``BENCHMARK.json`` lists the three that fit the benchmark's time budget
(and why each was chosen); ``bisection-full`` is kept runnable by name for
work on the fair-share solver, whose layers ``cluster-replay`` also covers.

Each workload is a list of *parts* per operation.  A part is one call into
the program: it sets its inputs up, runs the simulation, and returns raw
results.  The harness times a part from its start to the first simulated
event (set-up) and from there to its end (run); where no simulator runs in
this process (the campaign coordinator), the part marks the boundary itself
with ``clock.setup_done()``.  Output checks happen afterwards in
``check``, outside the timed region.

Inputs come from a *variant*: ``--seed`` picks one of a few seeds per
workload, and every variant's output digest is pinned in ``pins.json``, so
each run is checked against a recorded answer, whatever the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from repro.campaign.dist.coordinator import DistOptions, run_distributed
from repro.campaign.plan import DEFAULT_SEED, plan_campaign
from repro.campaign.scenarios import run_bisection_full
from repro.campaign.store import ArtifactStore
from repro.cluster import ClusterScheduler, JobTrace
from repro.config import SimulationConfig, TopologyConfig
from repro.experiments.harness import ExperimentScale
from repro.model.base import build_network_model
from repro.mpi.job import MpiJob
from repro.noise.background import BackgroundTraffic, NoiseLevel
from repro.workloads.microbench import PingPongBenchmark

#: Seeds a workload's variants use; ``--seed n`` selects ``n % VARIANTS``.
VARIANTS = 8

#: flit-pingpong variants: 2019 is the input the issue sized; the others
#: run within 2.5% of its 458,071 events (seeds 2019-2059 range from 322k
#: to 533k), so the seed changes the traffic drawn, not the amount of work.
FLIT_SEEDS = (2019, 2020, 2031, 2049, 2043, 2036, 2040, 2035)


def sha256_json(value: Any) -> str:
    """Digest of a JSON-serialisable value in canonical form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PartResult:
    """What ``check`` makes of one part's raw results."""

    digest: str
    #: Runs, replays or cells the part attempted, and how many failed
    #: before the digest is compared with the pin.
    operations: int = 1
    failed: int = 0
    #: Completed jobs (MPI jobs, exchanges, trace jobs or cells) and stored
    #: or returned results, for ``jobs_per_s`` and ``cells_per_s``.
    jobs: int = 1
    cells: int = 1
    #: Modelled outputs (``out.*``): identical for any speed-only change.
    out: Dict[str, float] = field(default_factory=dict)
    #: Per-layer numbers only the workload can see (queue waits, store
    #: bytes, cell times...).
    layer: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One named workload; BENCHMARK.json records why it was chosen."""

    name: str
    #: Seed of each variant; index 0 is the input the issue sized.
    seeds: Sequence[int]
    #: seed -> the parts of one operation, each ``part(clock) -> raw``.
    parts: Callable[[int], List[Callable[[Any], Any]]]
    check: Callable[[Any], PartResult]

    def seed_for(self, cli_seed: int) -> int:
        return self.seeds[cli_seed % len(self.seeds)]


# -- flit-pingpong -------------------------------------------------------------


def _flit_parts(seed: int):
    scale = ExperimentScale.paper().with_seed(seed)

    def part(clock):
        config = scale.simulation_config().with_backend("flit")
        network = build_network_model(config)
        allocation = [0, network.num_nodes - 1]
        noise = BackgroundTraffic.for_level(
            network, allocation, NoiseLevel.MODERATE, name="bench-noise"
        )
        noise.start()
        job = MpiJob(network, allocation, name="bench-flit")
        workload = PingPongBenchmark(
            size_bytes=scale.scaled_size(16 * 1024),
            iterations=scale.pingpong_repetitions,
            warmup=1,
        )
        result = workload.run(job)
        noise.stop()
        return network, allocation, result

    return [part]


def _flit_check(raw) -> PartResult:
    network, allocation, result = raw
    selector = network.selector
    # The observable digest of benchmarks/bench_flit_engine.run_flit.
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
    digest = hashlib.sha256(
        json.dumps(observable, sort_keys=True).encode()
    ).hexdigest()
    counters = network.nic(allocation[0]).counters
    return PartResult(
        digest=digest,
        out={
            "out.stall_ratio": counters.stall_ratio,
            "out.avg_latency_cycles": counters.avg_packet_latency,
            "out.median_iter_cycles": float(result.median_time()),
            "out.makespan_cycles": float(network.sim.now),
            "out.minimal_fraction": selector.minimal_fraction,
        },
    )


# -- bisection-full ------------------------------------------------------------

BISECTION_MODES = ("ADAPTIVE_0", "ADAPTIVE_3", "MIN_HASH")


def _bisection_parts(seed: int):
    scale = ExperimentScale.paper().with_seed(seed)

    def make(mode):
        def part(clock):
            # noise="none" only: the exchange covers every node, so
            # BackgroundTraffic.for_level finds no free node and a noisy
            # run is the same run.
            return run_bisection_full(scale, mode=mode, message_kib=64, noise="none")

        return part

    return [make(mode) for mode in BISECTION_MODES]


def _bisection_check(payload) -> PartResult:
    # The payload carries the per-message latency quantiles, the NIC
    # counter ratios and the solver's statistics.
    metrics = payload["metrics"]
    return PartResult(
        digest=sha256_json(payload),
        out={
            "out.stall_ratio": metrics["stall_ratio"],
            "out.avg_latency_cycles": metrics["avg_packet_latency"],
            "out.median_iter_cycles": metrics["median"],
        },
    )


# -- cluster-replay ------------------------------------------------------------


def cluster_machine(seed: int) -> SimulationConfig:
    """176 nodes: small enough that the heavy trace queues for nodes."""
    return SimulationConfig(
        topology=TopologyConfig(
            num_groups=11,
            chassis_per_group=2,
            blades_per_chassis=4,
            nodes_per_router=2,
        ),
        seed=seed,
        backend="flow",
    )


def cluster_trace() -> JobTrace:
    """The 60-job heavy trace with arrivals ten times denser."""
    trace = JobTrace.synthetic(7, 60, load="heavy", max_nodes=32)
    return JobTrace(
        name=trace.name + "-dense",
        jobs=tuple(
            dataclasses.replace(job, submit_time=job.submit_time // 10)
            for job in trace.jobs
        ),
        meta=dict(trace.meta, submit_divisor=10),
    )


def _cluster_parts(seed: int):
    config = cluster_machine(seed)

    def part(clock):
        baselines = []

        def baseline_factory():
            baselines.append(1)
            return build_network_model(config)

        network = build_network_model(config)
        scheduler = ClusterScheduler(
            network, cluster_trace(), baseline_factory=baseline_factory
        )
        return network, scheduler.replay(), len(baselines)

    return [part]


def _cluster_check(raw) -> PartResult:
    network, result, baselines = raw
    rows = result.job_rows()
    waits = [row["wait"] or 0 for row in rows]
    unfinished = sum(1 for row in rows if row["finish"] is None)
    iterations = [t for r in result.records for t in r.iteration_times]
    flits = stalled = latency = responses = 0.0
    for node in range(network.num_nodes):
        counters = network.nic(node).counters
        flits += counters.request_flits
        stalled += counters.request_flits_stalled_cycles
        latency += counters.request_packets_cum_latency
        responses += counters.responses_received
    return PartResult(
        digest=sha256_json(rows),  # as bench_cluster_trace computes it
        # A replay in which no job waited no longer measures admission and
        # queueing, which is what the workload is for.
        failed=1 if unfinished or not any(waits) else 0,
        jobs=len(rows) - unfinished,
        out={
            "out.stall_ratio": stalled / flits if flits else 0.0,
            "out.avg_latency_cycles": latency / responses if responses else 0.0,
            "out.median_iter_cycles": float(statistics.median(iterations)),
            "out.makespan_cycles": float(result.makespan),
        },
        layer={
            "cluster.jobs_queued": float(sum(1 for w in waits if w > 0)),
            "cluster.max_wait_cycles": float(max(waits)),
            "cluster.baseline.calls": float(baselines),
        },
    )


# -- campaign-smoke ------------------------------------------------------------

CAMPAIGN_SCENARIOS = ("pingpong-placement", "routing-mode-pingpong")
CAMPAIGN_WORKERS = 2


def _campaign_parts(seed: int, scratch: pathlib.Path):
    def part(clock):
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            # The scratch directory is the benchmark's, not the program's:
            # set-up starts once it exists.
            clock.begin_setup()
            t0 = time.perf_counter()
            plan = plan_campaign(
                list(CAMPAIGN_SCENARIOS), scale="smoke", backend="flow", seed=seed
            )
            plan_s = time.perf_counter() - t0
            store = ArtifactStore(pathlib.Path(tmp) / "store")
            clock.setup_done()
            done: List[float] = []
            start = time.perf_counter()
            result = run_distributed(
                plan,
                store,
                DistOptions(workers=CAMPAIGN_WORKERS, transport="local"),
                progress=lambda i, n, record: done.append(time.perf_counter()),
            )
            wall = time.perf_counter() - start
            files = {
                path.relative_to(store.root).as_posix(): path.read_bytes()
                for path in sorted(store.root.rglob("*"))
                if path.is_file()
            }
        return plan, result, files, plan_s, wall, done, start

    return [part]


def _campaign_check(raw) -> PartResult:
    plan, result, files, plan_s, wall, done, start = raw
    payloads = {
        name: data for name, data in files.items() if name.startswith("results/")
    }
    digest = hashlib.sha256()
    for name in sorted(payloads):
        digest.update(name.encode())
        digest.update(payloads[name])
    cells = len(plan)
    failed = sum(1 for record in result.records if not record.ok)
    if len(payloads) != cells:
        failed = cells
    metrics = [json.loads(data)["metrics"] for data in payloads.values()]
    elapsed = [record.elapsed_s for record in result.records]
    quartiles = statistics.quantiles(elapsed, n=10)
    out = {"out.median_iter_cycles": statistics.median(m["median"] for m in metrics)}
    for key, name in (("stall_ratio", "out.stall_ratio"),
                      ("avg_packet_latency", "out.avg_latency_cycles")):
        values = [m[key] for m in metrics if key in m]
        if values:
            out[name] = statistics.fmean(values)
    return PartResult(
        digest=digest.hexdigest(),
        operations=cells,
        failed=failed,
        jobs=cells - failed,
        cells=len(payloads),
        out=out,
        layer={
            "campaign.plan_s": plan_s,
            "campaign.store.bytes": float(sum(len(d) for d in files.values())),
            "campaign.cell_s.p50": statistics.median(elapsed),
            "campaign.cell_s.p90": quartiles[8],
            "campaign.dist.first_result_s": min(done) - start if done else 0.0,
            "campaign.dist.worker_busy_frac": sum(elapsed) / (CAMPAIGN_WORKERS * wall),
        },
    )


def workloads(scratch: pathlib.Path) -> Dict[str, Workload]:
    """The benchmark's workloads by name; ``scratch`` holds campaign stores."""
    table = [
        Workload(
            "flit-pingpong",
            FLIT_SEEDS,
            _flit_parts,
            _flit_check,
        ),
        Workload(
            "bisection-full",
            [2019 + i for i in range(VARIANTS)],
            _bisection_parts,
            _bisection_check,
        ),
        Workload(
            "cluster-replay",
            [7 + i for i in range(VARIANTS)],
            _cluster_parts,
            _cluster_check,
        ),
        Workload(
            "campaign-smoke",
            [DEFAULT_SEED + i for i in range(VARIANTS)],
            lambda seed: _campaign_parts(seed, scratch),
            _campaign_check,
        ),
    ]
    return {w.name: w for w in table}
