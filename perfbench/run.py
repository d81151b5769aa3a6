"""The simulator's benchmark: one command for every workload.

    python3 perfbench/run.py --workload flit-pingpong --seed 0 --seconds 20 --trace 0

An untraced run (``--trace 0``) repeats the workload's operation for
``--seconds`` and reports the end-to-end metrics of ``BENCHMARK.json``,
each a median over the operations.  Times are in *reference seconds*: a
fixed pure-Python calibration loop (``calibrate``) runs before and after
every operation, and each time measured in between is scaled by the host
factor there (``host_factor``).  On a shared host whose speed drifts by up
to 2x for seconds at a time, this halved the run-to-run spread of the
time metrics; the raw medians are printed beside them.

* ``setup_s``: CPU seconds before the first simulated event (set-up-only
  repetitions are pooled with the operations' own set-up);
* ``run_cpu_s`` / ``run_wall_s``: CPU (reaped child processes included)
  and wall seconds from there to the end of the operation;
* ``jobs_per_s``: jobs completed per run CPU second — trace jobs for
  ``cluster-replay``, cells for ``campaign-smoke``, the ping-pong job or
  the three exchanges elsewhere;
* ``cells_per_s``: results produced per run wall second — stored cells for
  ``campaign-smoke``, one per run or routing mode elsewhere;
* ``peak_rss_mb``: memory high-water mark of this process or of its
  largest reaped child (not scaled).

A traced run (``--trace 1``) does the same, then runs one more operation
with a span wrapper on every layer entry point (``perf_layers.py``) and
reports the per-layer metrics instead.

Every operation's output digest must equal the one pinned for its input in
``pins.json``; a mismatch or an exception counts as failed.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is the failure fraction,
printed above it as ``failed_frac``.  ``python3 perfbench/run.py
--write-pins`` re-records the pins (only for a change that alters modelled
outputs).

Run it from the root of a source checkout: it imports ``repro`` from
``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perf_layers import SIM_ENTRY_POINTS, Capture, layer_metrics, layer_probes, merged
from perf_trace import Tracer, leftover_wrappers, patched, traced

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
PINS = HERE / "pins.json"

#: Variables that change what gets measured.  Telemetry and probes switch on
#: when ``repro`` is imported, so they are dropped before that import.
SCRUBBED_PREFIXES = (
    "REPRO_SIM_ENGINE",
    "REPRO_FLOW_SOLVER",
    "REPRO_TELEMETRY",
    "REPRO_PROBE",
    "REPRO_LOG",
)

#: Set-up-only repetitions before each timed operation, so ``setup_s`` is a
#: median of many samples even for workloads that fit few operations in
#: ``--seconds``: at least one, and up to this many while ``SETUP_SECONDS``
#: last.
SETUP_REPS = 5
SETUP_SECONDS = 0.05

#: CPU seconds one calibration round takes on an uncontended host (one vCPU
#: of a 2.1 GHz Xeon, CPython 3.x), so reference seconds read close to raw
#: ones.  The fastest of several short rounds is kept, so a blip shorter
#: than a round (worker processes exiting, a timer interrupt) is ignored
#: while a slow stretch of the host, which spans all rounds, is not.
REFERENCE_CALIBRATION_S = 0.025
CALIBRATION_STEPS = 40_000
CALIBRATION_ROUNDS = 5
#: Over two sets of ten runs per workload, the worst IQR/median spread of
#: the time metrics was 0.21 unscaled, 0.20 with exponent 1 and 0.14 with
#: 0.5, the best single exponent for all three workloads together.
HOST_FACTOR_EXPONENT = 0.5

#: Per-layer metrics that only some workloads produce.
WORKLOAD_SPECIFIC = ("out.", "cluster.", "campaign.")


def scrub_environment() -> List[str]:
    removed = sorted(k for k in os.environ if k.startswith(SCRUBBED_PREFIXES))
    for key in removed:
        del os.environ[key]
    return removed


def import_program():
    """Import ``repro`` from this checkout's ``src/``; exit 2 if absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    location = pathlib.Path(repro.__file__).resolve()
    if src not in location.parents:
        print(f"perfbench: repro imported from {location}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def cpu_seconds() -> float:
    """CPU of this process plus every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class _Slot:
    __slots__ = ("credits", "queue")

    def __init__(self):
        self.credits = 8
        self.queue: List[int] = []


def _calibration_round() -> float:
    slots = [_Slot() for _ in range(64)]
    heap = [(i, i) for i in range(64)]
    counts: Dict[int, int] = {}
    start = time.process_time()
    for _ in range(CALIBRATION_STEPS):
        t, k = heapq.heappop(heap)
        slot = slots[k]
        slot.queue.append(t)
        if len(slot.queue) > 4:
            slot.queue.pop(0)
        slot.credits = (slot.credits + t) & 15
        counts[k] = counts.get(k, 0) + 1
        heapq.heappush(heap, (t + 1 + (t * 7 + k) % 13, (k * 31 + t) % 64))
    elapsed = time.process_time() - start
    if sum(counts.values()) != CALIBRATION_STEPS:
        raise RuntimeError("calibration loop miscounted")
    return elapsed


def calibrate() -> float:
    """CPU seconds of a fixed loop shaped like the simulator's hot path.

    Heap-ordered events, slot-object attribute updates, short list queues
    and dict counters; the fastest of ``CALIBRATION_ROUNDS`` rounds.  It
    calls nothing in ``repro``, so a change to the program never moves it;
    only the host's speed does.
    """
    return min(_calibration_round() for _ in range(CALIBRATION_ROUNDS))


def host_factor(before: float, after: float) -> float:
    """Reference seconds per measured second, from the calibrations around a span.

    The tight calibration loop slows about twice as much as the workloads
    do when the host is contended (flit-pingpong tracks it closely, the
    NumPy-heavy cluster-replay and the process-spawning campaign-smoke far
    less), so the ratio is damped by ``HOST_FACTOR_EXPONENT``.
    """
    return (REFERENCE_CALIBRATION_S / ((before + after) / 2.0)) ** HOST_FACTOR_EXPONENT


class SetupOnly(Exception):
    """Raised at the end of set-up when a part runs for its set-up only."""


class Clock:
    """Splits one operation's CPU and wall time into set-up and run."""

    def __init__(self, setup_only: bool = False):
        self.setup_only = setup_only
        self.setup_cpu = 0.0
        self.setup_wall = 0.0
        self._since: Optional[tuple] = None

    def begin_setup(self) -> None:
        self._since = (cpu_seconds(), time.perf_counter())

    def setup_done(self) -> None:
        if self._since is None:
            return
        cpu, wall = self._since
        self.setup_cpu += cpu_seconds() - cpu
        self.setup_wall += time.perf_counter() - wall
        self._since = None
        if self.setup_only:
            raise SetupOnly


class Bench:
    """One process's measurements of one workload input."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.clock = Clock()

    def _mark(self, fn):
        def first_event(sim, *args, **kwargs):
            self.clock.setup_done()
            return fn(sim, *args, **kwargs)

        return first_event

    def run_op(self, setup_only: bool = False):
        """Run every part of one operation; ``(clock, cpu, wall, raws)``."""
        self.clock = clock = Clock(setup_only)
        parts = self.workload.parts(self.seed)
        raws = []
        # Each operation starts from a collected heap, so garbage of the
        # previous one is neither timed nor counted in peak memory.
        gc.collect()
        with patched([(target, self._mark) for target in SIM_ENTRY_POINTS]):
            cpu0, wall0 = cpu_seconds(), time.perf_counter()
            for part in parts:
                clock.begin_setup()
                try:
                    raws.append(part(clock))
                except SetupOnly:
                    pass
            cpu, wall = cpu_seconds() - cpu0, time.perf_counter() - wall0
        return clock, cpu, wall, raws


@dataclass
class OpSample:
    """One timed operation; times are raw, ``factor`` scales them."""

    setup_cpu: float
    run_cpu: float
    run_wall: float
    parts: list
    attempted: int = 0
    failed: int = 0
    jobs: int = 0
    cells: int = 0
    factor: float = 1.0
    digests: List[str] = field(default_factory=list)


def check_op(workload, seed: int, raws, pins: Dict) -> OpSample:
    """Digest each part's output and compare it with the pin."""
    expected = pins.get(workload.name, {}).get(str(seed))
    results = [workload.check(raw) for raw in raws]
    sample = OpSample(0.0, 0.0, 0.0, results)
    for index, result in enumerate(results):
        sample.digests.append(result.digest)
        sample.attempted += result.operations
        mismatch = expected is None or index >= len(expected) or expected[index] != result.digest
        sample.failed += result.operations if mismatch else result.failed
        sample.jobs += result.jobs
        sample.cells += result.cells
        if mismatch:
            print(
                f"perfbench: {workload.name} seed {seed} part {index}: digest "
                f"{result.digest[:16]} does not match the pin", file=sys.stderr,
            )
    return sample


def timed_op(bench: Bench, pins: Dict) -> OpSample:
    clock, cpu, wall, raws = bench.run_op()
    sample = check_op(bench.workload, bench.seed, raws, pins)
    sample.setup_cpu = clock.setup_cpu
    sample.run_cpu = cpu - clock.setup_cpu
    sample.run_wall = wall - clock.setup_wall
    return sample


def fingerprint(removed: List[str]) -> Dict[str, object]:
    import numpy
    from repro.model.flow.engine import default_engine_kind
    from repro.sim.engine import effective_engine_kind

    rev = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            rev = ref
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(path.relative_to(ROOT).as_posix().encode())
        tree.update(path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "sim_engine": effective_engine_kind(),
        "flow_solver": default_engine_kind(),
        "env_removed": removed,
    }


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end" | "per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def measure(bench: Bench, seconds: float, pins: Dict):
    """Operations until ``seconds`` pass, each after set-up-only repetitions.

    Set-up is sampled before every operation rather than in one block, so
    its median spans the run as the operations' do.  A calibration between
    consecutive operations gives each operation, and the set-up samples
    before it, the host factor of its own stretch of the run.  Returns the
    set-up samples as ``(raw CPU, factor)``, the timed operations, and the
    number of operations that raised.
    """
    setups: List[tuple] = []
    ops: List[OpSample] = []
    crashed = 0
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while not (ops or crashed) or time.perf_counter() < deadline:
        start, raw_setups = time.perf_counter(), []
        while not raw_setups or (len(raw_setups) < SETUP_REPS
                                 and time.perf_counter() - start < SETUP_SECONDS):
            raw_setups.append(bench.run_op(setup_only=True)[0].setup_cpu)
        try:
            op = timed_op(bench, pins)
        except Exception:
            traceback.print_exc()
            crashed += 1
            op = None
        after = calibrate()
        factor = host_factor(before, after)
        before = after
        setups += [(raw, factor) for raw in raw_setups]
        if op is not None:
            op.factor = factor
            setups.append((op.setup_cpu, factor))
            ops.append(op)
    return setups, ops, crashed


def end_to_end(setups: List[tuple], ops: List[OpSample], scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics in reference seconds, or raw if not ``scaled``."""
    def f(factor: float) -> float:
        return factor if scaled else 1.0

    return {
        "setup_s": statistics.median(raw * f(factor) for raw, factor in setups),
        "run_cpu_s": statistics.median(op.run_cpu * f(op.factor) for op in ops),
        "run_wall_s": statistics.median(op.run_wall * f(op.factor) for op in ops),
        "jobs_per_s": statistics.median(op.jobs / (op.run_cpu * f(op.factor)) for op in ops),
        "cells_per_s": statistics.median(op.cells / (op.run_wall * f(op.factor)) for op in ops),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_op(bench: Bench, pins: Dict, untraced_cpu: float):
    """One operation under every layer probe, scaled like the untraced ones."""
    capture = Capture()
    probes = layer_probes(capture)
    tracer = Tracer()
    before = calibrate()
    with traced(tracer, probes):
        sample = timed_op(bench, pins)
    sample.factor = host_factor(before, calibrate())
    left = leftover_wrappers()
    if left:
        raise RuntimeError(f"wrappers left installed: {left}")
    traced_cpu = sample.run_cpu * sample.factor
    return sample, layer_metrics(tracer, capture, sample.parts, traced_cpu, untraced_cpu)


def write_pins(names: List[str], table) -> None:
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    for name in names:
        workload = table[name]
        pins[name] = {}
        for seed in workload.seeds:
            bench = Bench(workload, seed)
            _, _, _, raws = bench.run_op()
            pins[name][str(seed)] = [workload.check(raw).digest for raw in raws]
            print(name, seed, [d[:12] for d in pins[name][str(seed)]], flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="re-record pins.json for --workload (default: all)")
    args = parser.parse_args(argv)

    removed = scrub_environment()
    import_program()
    from perf_workloads import workloads
    from repro.telemetry.core import TELEMETRY
    from repro.telemetry.probes import PROBES

    if TELEMETRY.enabled or PROBES.enabled:
        print("perfbench: telemetry or probes are on after import", file=sys.stderr)
        return 2
    scratch_root = ROOT / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        table = workloads(pathlib.Path(scratch))
        if args.write_pins:
            write_pins([args.workload] if args.workload else list(table), table)
            return 0
        if args.workload not in table:
            parser.error(f"--workload must be one of {', '.join(table)}")
        declared = declared_metrics()
        workload = table[args.workload]
        bench = Bench(workload, workload.seed_for(args.seed))
        pins = json.loads(PINS.read_text())
        print(f"# perfbench {workload.name}: input seed {bench.seed}, "
              f"{args.seconds:g} s, trace {args.trace}")
        print(json.dumps({"fingerprint": fingerprint(removed)}, sort_keys=True))
        try:
            setups, ops, crashed = measure(bench, args.seconds, pins)
            if not ops:
                print("perfbench: every operation raised", file=sys.stderr)
                return 1
            metrics = end_to_end(setups, ops)
            raw = end_to_end(setups, ops, scaled=False)
            attempted = sum(op.attempted for op in ops) + crashed
            failed = sum(op.failed for op in ops) + crashed
            if args.trace:
                sample, metrics = traced_op(bench, pins, metrics["run_cpu_s"])
                attempted += sample.attempted
                failed += sample.failed
                if sample.digests != ops[0].digests:
                    print("perfbench: traced and untraced digests differ", file=sys.stderr)
                    failed += sample.attempted
        except Exception:
            traceback.print_exc()
            return 1
    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        # Outputs and layers a workload does not have read as zero.
        for name in declared[kind]:
            if name.startswith(WORKLOAD_SPECIFIC):
                metrics.setdefault(name, 0.0)
    if set(metrics) != set(declared[kind]):
        print(f"perfbench: metrics differ from BENCHMARK.json {kind}: "
              f"{sorted(set(metrics) ^ set(declared[kind]))}", file=sys.stderr)
        return 1
    for name in sorted(metrics):
        print(f"  {name:45s} {metrics[name]:>16.6f} {declared[kind][name]}")
    if not args.trace:
        print("  raw (unscaled) medians: " + ", ".join(
            f"{k}={raw[k]:.6g}" for k in sorted(raw) if k != "peak_rss_mb"))
        outs = merged([r.out for r in ops[-1].parts])
        print("  " + ", ".join(f"{k}={v:.6g}" for k, v in sorted(outs.items())))
        print("  run_cpu_s per operation (raw x host factor): " + " ".join(
            f"{op.run_cpu:.3f}x{op.factor:.3f}" for op in ops))
    print(f"  failed_frac {failed / attempted:.6f} ({failed} of {attempted} "
          f"operations, {len(ops)} timed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": declared[kind][name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
