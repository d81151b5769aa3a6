"""Instrumentation overhead: telemetry and probes, enabled vs disabled.

Both instrumentation layers are off by default.  Each layer in ``LAYERS``
runs its own serial grid of ping-pong cells with the layer disabled and
enabled, and must hold the same two bars:

* **enabled** — the enabled grid stays within 5% of the disabled one;
* **disabled guard** — when off, a layer's only cost is its guard checks
  on the hot paths.  The bench times one guard hit, counts how many hits
  one grid makes (read from an instrumented cell), and requires the
  implied disabled-mode overhead to stay under 1% of the baseline.

The layers:

* ``telemetry`` on a flow-backend grid — one ``TELEMETRY.enabled`` check
  per hot-path entry, i.e. one per span an enabled cell records;
* ``probes`` on a flit-backend grid (default interval and decision
  rate) — one ``probe_hook is not None`` check per executed event plus
  one ``PROBES.enabled`` check per adaptive routing decision.

Measuring a few percent on a shared machine needs care, so the protocol
is defensive: CPU time (``time.process_time``) instead of wall clock, runs
interleaved in pairs whose mode order flips every pair (so drift cannot
systematically land on one mode), the minimum over all runs per mode (the
least-disturbed sample), and up to three attempts — ambient noise can
only *inflate* the estimate, so retrying a failed attempt is sound while
a genuine regression keeps failing.  The guard timing is a minimum too.
That holds on a host of steady speed; where speed drifts by more than the
bar between runs, one mode's fastest run can be luckier than the other's,
and the verdict flips (ROADMAP direction 4 has measurements).

A grid is sized by CPU time, not by cell count: it repeats its layer's
cells until one warm disabled pass takes at least the grid target.  A
5% bar needs runs long enough that their spread stays well under 5%;
a grid of a fixed cell count shrinks below that as the simulator gets
faster (four flow cells once took 0.075 s, and their disabled runs then
spread by 20%).  A JSON artifact goes to
``benchmarks/results/BENCH_instrumentation_overhead.json``::

    python benchmarks/bench_instrumentation_overhead.py            # 2 s grids
    python benchmarks/bench_instrumentation_overhead.py --smoke    # CI: 0.5 s grids
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Tuple

if __package__ in (None, ""):  # `python benchmarks/bench_instrumentation_overhead.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.conftest import RESULTS_DIR
from repro.campaign import RunSpec, ensure_builtin_scenarios, run_cell
from repro.telemetry import TELEMETRY
from repro.telemetry import disable as disable_telemetry
from repro.telemetry import enable as enable_telemetry
from repro.telemetry.probes import PROBES, disable_probes, enable_probes

ENABLED_CEILING_PCT = 5.0
DISABLED_CEILING_PCT = 1.0
REPEATS = 8
ATTEMPTS = 3
#: CPU seconds one warm disabled pass over a grid must reach.
GRID_CPU_S = 2.0
SMOKE_GRID_CPU_S = 0.5
GUARD_ITERS = 200_000
GUARD_REPEATS = 5


def _spans(record) -> int:
    return sum(agg["count"] for agg in record.telemetry["spans"].values())


def _events_and_decisions(record) -> int:
    events = int(record.telemetry["counters"].get("sim.events", 0))
    return events + int((record.probes or {}).get("decisions_seen", 0))


@dataclass(frozen=True)
class Layer:
    """One instrumentation layer and the grid it is measured on."""

    name: str
    backend: str
    first_seed: int
    #: Distinct cells (one seed each) a grid repeats until it is long enough.
    cells: int
    enable: Callable[[], None]
    disable: Callable[[], None]
    #: The singleton whose ``enabled`` flag the hot paths check.
    flag: object
    #: Disabled-path guard hits one cell makes, from an instrumented record.
    guard_hits: Callable[[object], int]


LAYERS = (
    Layer("telemetry", "flow", 4000, 4, enable_telemetry, disable_telemetry,
          TELEMETRY, _spans),
    Layer("probes", "flit", 4100, 2, enable_probes, disable_probes,
          PROBES, _events_and_decisions),
)

#: A grid: the cells one measured run executes serially, in order.
Grid = Tuple[RunSpec, ...]


def _layer_cells(layer: Layer) -> Grid:
    """A layer's distinct cells: one seed each, identical work per cell."""
    ensure_builtin_scenarios()
    return tuple(
        RunSpec.make(
            "pingpong-placement",
            {"placement": "inter-groups", "message_kib": 16, "noise": "light"},
            seed=layer.first_seed + i,
            backend=layer.backend,
        )
        for i in range(layer.cells)
    )


def _run_grid(grid: Grid) -> float:
    """Execute every cell serially in-process; returns CPU seconds."""
    start = time.process_time()
    for spec in grid:
        record = run_cell(spec)
        assert record.ok, record.error
    return time.process_time() - start


def _size_grid(layer: Layer, target_s: float) -> Tuple[Grid, float]:
    """The layer's cells, repeated until a warm disabled pass reaches ``target_s``.

    Returns the grid and the CPU seconds of the one pass it was sized on.
    """
    cells = _layer_cells(layer)
    layer.disable()
    _run_grid(cells)  # warm caches/imports outside both measured modes
    one_pass = _run_grid(cells)
    return cells * max(1, math.ceil(target_s / one_pass)), one_pass


def _run_mode(layer: Layer, grid: Grid, enabled: bool) -> float:
    if enabled:
        layer.enable()
    else:
        layer.disable()
    try:
        return _run_grid(grid)
    finally:
        layer.disable()


def _guard_ns(flag) -> float:
    """CPU cost of one disabled-path guard hit, minimum over a few loops.

    Each iteration makes both guard shapes the hot paths use — the
    engines' ``hook is not None`` and the layer's ``flag.enabled`` — plus
    the loop overhead, which overestimates one hit: the conservative
    direction for the <1% bound.
    """
    hook = None
    samples = []
    for _ in range(GUARD_REPEATS):
        start = time.process_time()
        for _ in range(GUARD_ITERS):
            if hook is not None:
                raise AssertionError("unreachable")
            if flag.enabled:
                raise AssertionError("the layer must be off for the guard bench")
        samples.append(time.process_time() - start)
    return min(samples) / GUARD_ITERS * 1e9


def _guard_hits_per_run(layer: Layer, grid: Grid) -> int:
    """How many disabled-path guard hits one grid makes."""
    enable_telemetry()
    layer.enable()
    try:
        record = run_cell(grid[0])
        assert record.ok and record.telemetry is not None
        per_cell = layer.guard_hits(record)
    finally:
        layer.disable()
        disable_telemetry()
    return per_cell * len(grid)


def _measure_once(layer: Layer, grid: Grid) -> dict:
    """One attempt: interleaved order-flipping pairs, minimum per mode."""
    disabled_runs, enabled_runs = [], []
    for pair in range(REPEATS):
        first_enabled = pair % 2 == 1
        for enabled in (first_enabled, not first_enabled):
            (enabled_runs if enabled else disabled_runs).append(
                _run_mode(layer, grid, enabled)
            )
    baseline = min(disabled_runs)
    enabled = min(enabled_runs)
    return {
        "disabled_s": [round(v, 4) for v in disabled_runs],
        "enabled_s": [round(v, 4) for v in enabled_runs],
        "baseline_s": round(baseline, 4),
        "instrumented_s": round(enabled, 4),
        "enabled_overhead_pct": round((enabled / baseline - 1.0) * 100.0, 3),
    }


def measure_layer(layer: Layer, target_s: float) -> dict:
    """Time one layer's grid disabled and enabled; returns its JSON row."""
    grid, one_pass = _size_grid(layer, target_s)

    trials = []
    for _ in range(ATTEMPTS):
        trials.append(_measure_once(layer, grid))
        if trials[-1]["enabled_overhead_pct"] <= ENABLED_CEILING_PCT:
            break
    best = min(trials, key=lambda t: t["enabled_overhead_pct"])

    guard_ns = _guard_ns(layer.flag)
    guard_hits = _guard_hits_per_run(layer, grid)
    disabled_pct = guard_hits * guard_ns / (best["baseline_s"] * 1e9) * 100.0
    row = {
        "layer": layer.name,
        "backend": layer.backend,
        "distinct_cells": layer.cells,
        "grid_repeats": len(grid) // layer.cells,
        "grid_cells": len(grid),
        "grid_target_s": target_s,
        "sizing_pass_s": round(one_pass, 4),
        "attempts": len(trials),
        "trials": trials,
        "guard_ns_per_check": round(guard_ns, 2),
        "guard_checks_per_run": guard_hits,
        "disabled_overhead_pct": round(disabled_pct, 4),
    }
    row.update(best)  # the attempt the bars are checked against
    return row


def measure_overhead(smoke: bool) -> dict:
    """Measure every layer; returns the JSON payload."""
    target_s = SMOKE_GRID_CPU_S if smoke else GRID_CPU_S
    return {
        "benchmark": "instrumentation_overhead",
        "repeats": REPEATS,
        "grid_target_s": target_s,
        "enabled_ceiling_pct": ENABLED_CEILING_PCT,
        "disabled_ceiling_pct": DISABLED_CEILING_PCT,
        "layers": [measure_layer(layer, target_s) for layer in LAYERS],
    }


def check_overhead(payload: dict) -> None:
    """Assert both ceilings for every layer."""
    for row in payload["layers"]:
        assert row["enabled_overhead_pct"] <= payload["enabled_ceiling_pct"], (
            f"{row['layer']} slows the {row['backend']} grid by "
            f"{row['enabled_overhead_pct']}% "
            f"(ceiling: {payload['enabled_ceiling_pct']}%)"
        )
        assert row["disabled_overhead_pct"] < payload["disabled_ceiling_pct"], (
            f"disabled {row['layer']} guard costs {row['disabled_overhead_pct']}% "
            f"(ceiling: {payload['disabled_ceiling_pct']}%)"
        )


def _write_json(payload: dict, results_dir: pathlib.Path) -> pathlib.Path:
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_instrumentation_overhead.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def _render(payload: dict) -> str:
    lines = [
        f"instrumentation overhead (min of {payload['repeats']} interleaved "
        f"runs per mode; ceilings {payload['enabled_ceiling_pct']:.0f}% enabled, "
        f"{payload['disabled_ceiling_pct']:.0f}% disabled)"
    ]
    for row in payload["layers"]:
        lines += [
            f"  {row['layer']} ({row['distinct_cells']} {row['backend']} cells "
            f"x {row['grid_repeats']}, {row['attempts']} attempt(s))",
            f"    one warm disabled pass: {row['sizing_pass_s']:.3f} s CPU "
            f"(grid target {row['grid_target_s']:.1f} s)",
            f"    disabled: {row['baseline_s']:.3f} s CPU",
            f"    enabled:  {row['instrumented_s']:.3f} s CPU "
            f"({row['enabled_overhead_pct']:+.2f}%)",
            f"    disabled guard: {row['guard_ns_per_check']:.0f} ns/check x "
            f"{row['guard_checks_per_run']} checks = "
            f"{row['disabled_overhead_pct']:.4f}%",
        ]
    return "\n".join(lines)


if __name__ == "__main__":
    payload = measure_overhead(smoke="--smoke" in sys.argv[1:])
    path = _write_json(payload, RESULTS_DIR)
    print(_render(payload))
    print(f"wrote {path}")
    check_overhead(payload)
