"""Reference vs. vectorized fair-share solver: throughput across flow counts.

The workload is the shape the flow backend produces on a large Dragonfly:
flows occupying a handful of links each, clustered so the sharing graph
splits into many components (jobs/placements), with heterogeneous link
capacities and a mix of finite/infinite flow caps.  Each size measures

* a **full solve** from scratch (the cost of the first allocation), and
* **incremental churn** — remove one flow, add one flow, re-solve — which
  is what every message arrival/completion costs during a simulation.

A JSON artifact with the series is written to
``benchmarks/results/BENCH_flow_solver.json``::

    python benchmarks/bench_flow_solver.py            # 100 to 100k flows
    python benchmarks/bench_flow_solver.py --smoke    # 100/1k flows (CI)

The default (non-smoke) run covers 100 / 1k / 10k / 100k concurrent flows;
the reference solver is only timed up to ``REFERENCE_MAX_FLOWS`` (a full
pure-Python solve at 100k flows takes minutes and proves nothing new).
The script reports and asserts no speed bar: each timing is one sample.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

if __package__ in (None, ""):  # `python benchmarks/bench_flow_solver.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.conftest import RESULTS_DIR
from repro.model.flow.engine import make_engine
from repro.model.flow.solver import FlowState

#: Concurrent-flow counts of the full sweep (smoke keeps the first two).
SIZES = (100, 1_000, 10_000, 100_000)
SMOKE_SIZES = (100, 1_000)

#: Largest size the pure-Python reference solver is timed at.
REFERENCE_MAX_FLOWS = 10_000

#: Incremental churn steps timed per engine.
CHURN_STEPS = 50
REFERENCE_CHURN_STEPS = 5

LINKS_PER_CLUSTER = 24
SEED = 2019


def build_workload(n_flows: int, seed: int = SEED):
    """Deterministic clustered instance: (capacity map, flow specs, clusters)."""
    rng = random.Random(seed)
    clusters = max(1, n_flows // 200)
    capacities = {}
    for cluster in range(clusters):
        for i in range(LINKS_PER_CLUSTER):
            capacities[("l", cluster, i)] = rng.choice([0.333, 1.0, 3.0])
    specs = []
    for fid in range(n_flows):
        cluster = rng.randrange(clusters)
        links = tuple(
            ("l", cluster, i)
            for i in rng.sample(range(LINKS_PER_CLUSTER), rng.randint(3, 8))
        )
        cap = rng.choice([float("inf"), float("inf"), 1.0, 0.5])
        specs.append((fid, links, cap))
    return capacities, specs, clusters


def _flows(specs):
    return [FlowState(fid, links, 100.0, cap=cap) for fid, links, cap in specs]


def _churn(engine, live, specs, steps: int, seed: int) -> float:
    """Remove/add/solve ``steps`` times; returns seconds per step.

    Victim picks and replacement flows are precomputed so the timed window
    contains only engine work — sorting 100k flow ids per step would
    otherwise dominate the measurement and mask solver regressions.
    """
    rng = random.Random(seed)
    next_id = len(specs)
    ordered = sorted(live)
    operations = []
    for _ in range(steps):
        victim_id = ordered.pop(rng.randrange(len(ordered)))
        _fid, links, cap = specs[rng.randrange(len(specs))]
        operations.append((live[victim_id], FlowState(next_id, links, 100.0, cap=cap)))
        ordered.append(next_id)
        live[next_id] = operations[-1][1]
        next_id += 1
    start = time.perf_counter()
    for victim, replacement in operations:
        engine.remove_flow(victim)
        engine.add_flow(replacement)
        engine.solve()
    return (time.perf_counter() - start) / steps


def run_engine(kind: str, n_flows: int, churn_steps: int) -> dict:
    """Time one engine on one size; returns the series sub-entry."""
    capacities, specs, _clusters = build_workload(n_flows)
    engine = make_engine(kind, capacities.__getitem__)
    live = {}
    start = time.perf_counter()
    for flow in _flows(specs):
        engine.add_flow(flow)
        live[flow.flow_id] = flow
    add_s = time.perf_counter() - start
    start = time.perf_counter()
    engine.solve()
    full_s = time.perf_counter() - start
    step_s = _churn(engine, live, specs, churn_steps, seed=SEED + 1)
    return {
        "engine": kind,
        "add_s": round(add_s, 4),
        "full_solve_s": round(full_s, 4),
        "full_solves_per_sec": round(1.0 / max(1e-9, full_s), 2),
        "incremental_step_ms": round(step_s * 1e3, 3),
        "incremental_solves_per_sec": round(1.0 / max(1e-9, step_s), 1),
        "churn_steps": churn_steps,
        "stats": dict(engine.stats),
    }


def measure_sizes(sizes) -> dict:
    """Run both engines across the sizes; returns the JSON payload."""
    series = []
    for n_flows in sizes:
        _capacities, _specs, clusters = build_workload(n_flows)
        entry = {
            "flows": n_flows,
            "clusters": clusters,
            "vectorized": run_engine("vectorized", n_flows, CHURN_STEPS),
        }
        if n_flows <= REFERENCE_MAX_FLOWS:
            entry["reference"] = run_engine(
                "reference", n_flows, REFERENCE_CHURN_STEPS
            )
            entry["speedup_full"] = round(
                entry["reference"]["full_solve_s"]
                / max(1e-9, entry["vectorized"]["full_solve_s"]),
                2,
            )
            entry["speedup_incremental"] = round(
                entry["reference"]["incremental_step_ms"]
                / max(1e-9, entry["vectorized"]["incremental_step_ms"]),
                2,
            )
        else:
            entry["reference"] = None
            entry["reference_skipped"] = (
                f"reference solver not timed above {REFERENCE_MAX_FLOWS} flows"
            )
        series.append(entry)
    compared = [e for e in series if e.get("reference")]
    return {
        "benchmark": "flow_solver",
        "workload": (
            f"clustered random paths ({LINKS_PER_CLUSTER} links/cluster, "
            "3-8 links/flow, heterogeneous capacities)"
        ),
        "sizes": list(sizes),
        "max_speedup_full": max((e["speedup_full"] for e in compared), default=None),
        "max_speedup_incremental": max(
            (e["speedup_incremental"] for e in compared), default=None
        ),
        "series": series,
    }


def _write_json(payload: dict, results_dir: pathlib.Path) -> pathlib.Path:
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_flow_solver.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def _render(payload: dict) -> str:
    lines = [f"flow-solver throughput — {payload['workload']}"]
    for entry in payload["series"]:
        vec = entry["vectorized"]
        line = (
            f"  {entry['flows']:>6d} flows: vectorized full {vec['full_solve_s']*1e3:8.1f} ms, "
            f"churn {vec['incremental_step_ms']:7.2f} ms/step"
        )
        ref = entry.get("reference")
        if ref:
            line += (
                f" | reference full {ref['full_solve_s']*1e3:9.1f} ms "
                f"-> {entry['speedup_full']:.1f}x full, "
                f"{entry['speedup_incremental']:.1f}x churn"
            )
        else:
            line += " | reference skipped"
        lines.append(line)
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="only the 100/1k-flow sizes (CI-friendly, ~seconds)",
    )
    args = parser.parse_args()
    payload = measure_sizes(SMOKE_SIZES if args.smoke else SIZES)
    path = _write_json(payload, RESULTS_DIR)
    print(_render(payload))
    print(f"wrote {path}")
