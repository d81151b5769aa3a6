"""Flit vs. flow backend: wall-clock and events/sec on the same scenario.

The benchmark scenario is a noisy inter-group ping-pong (the Figure-3/7
shape): a two-node job exchanging 16 KiB messages while background traffic
crosses the same groups.  Both backends run the identical scenario — same
:class:`~repro.config.SimulationConfig`, allocation, noise level and
iteration count — so the comparison isolates the substrate.

A JSON artifact with the series is written to
``benchmarks/results/BENCH_backends.json``::

    python benchmarks/bench_backends.py            # paper scale
    python benchmarks/bench_backends.py --smoke    # tiny scenario (CI)

It reports and asserts no speed bar: the timings are single samples, and
its lasting use is the fidelity side (``s``, ``L`` and median iteration on
both backends).  CI's perf job uploads the JSON with every run.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

if __package__ in (None, ""):  # `python benchmarks/bench_backends.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.conftest import RESULTS_DIR
from repro.experiments.harness import ExperimentScale
from repro.model import build_network_model
from repro.mpi.job import MpiJob
from repro.noise.background import BackgroundTraffic, NoiseLevel
from repro.workloads.microbench import PingPongBenchmark

BACKENDS = ("flit", "flow")


def run_backend(backend: str, scale: ExperimentScale) -> dict:
    """Run the benchmark scenario on one backend; returns the series entry.

    Construction (fabric wiring, noise placement, job setup) is timed
    separately from the measured region so ``events_per_sec`` and the
    speedup reflect substrate throughput, not object construction.
    """
    config = scale.simulation_config().with_backend(backend)
    build_start = time.perf_counter()
    network = build_network_model(config)
    allocation = [0, network.num_nodes - 1]
    noise = BackgroundTraffic.for_level(
        network, allocation, NoiseLevel.MODERATE, name="bench-noise"
    )
    if noise is not None:
        noise.start()
    job = MpiJob(network, allocation, name=f"bench-{backend}")
    workload = PingPongBenchmark(
        size_bytes=scale.scaled_size(16 * 1024),
        iterations=scale.pingpong_repetitions,
        warmup=1,
    )
    start = time.perf_counter()
    build_s = start - build_start
    result = workload.run(job)
    if noise is not None:
        noise.stop()
    elapsed = time.perf_counter() - start
    counters = network.nic(allocation[0]).counters
    return {
        "backend": backend,
        "build_s": round(build_s, 4),
        "wall_s": round(elapsed, 4),
        "events": network.sim.events_executed,
        "events_per_sec": round(network.sim.events_executed / elapsed, 1),
        "simulated_cycles": network.sim.now,
        "median_iteration_cycles": result.median_time(),
        "stall_ratio": round(counters.stall_ratio, 4),
        "avg_packet_latency": round(counters.avg_packet_latency, 1),
    }


def measure_backends(scale: ExperimentScale) -> dict:
    """Run the scenario on every backend; returns the JSON payload."""
    series = [run_backend(backend, scale) for backend in BACKENDS]
    by_name = {entry["backend"]: entry for entry in series}
    speedup = by_name["flit"]["wall_s"] / max(1e-9, by_name["flow"]["wall_s"])
    return {
        "benchmark": "backends",
        "scale": scale.name,
        "scenario": "noisy inter-group 16 KiB ping-pong",
        "flow_speedup_vs_flit": round(speedup, 2),
        "series": series,
    }


def _write_json(payload: dict, results_dir: pathlib.Path) -> pathlib.Path:
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_backends.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def _render(payload: dict) -> str:
    lines = [f"backend comparison — {payload['scenario']} ({payload['scale']} scale)"]
    for entry in payload["series"]:
        lines.append(
            f"  {entry['backend']:4s}: {entry['wall_s']:8.3f} s wall, "
            f"{entry['events']:8d} events ({entry['events_per_sec']:>12.1f} ev/s), "
            f"median {entry['median_iteration_cycles']:.0f} cycles"
        )
    lines.append(f"  flow speedup vs flit: {payload['flow_speedup_vs_flit']:.1f}x")
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the tiny smoke scale instead of the paper scale",
    )
    args = parser.parse_args()
    bench_scale = ExperimentScale.smoke() if args.smoke else ExperimentScale.paper()
    result = measure_backends(bench_scale)
    path = _write_json(result, RESULTS_DIR)
    print(_render(result))
    print(f"wrote {path}")
