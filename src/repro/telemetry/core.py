"""Zero-dependency tracing and metrics core.

The whole subsystem funnels through one module-level singleton,
:data:`TELEMETRY`.  The object is *mutated* by :func:`enable` /
:func:`disable` — never rebound — so any module may cache a reference at
import time and still observe the current state.  When disabled (the
default) every hot path pays exactly one attribute lookup
(``TELEMETRY.enabled``) and allocates nothing: ``span()`` hands back a
shared no-op singleton and the metrics registry swallows updates.
:func:`set_instrumentation` flips it together with the network probes'
:data:`~repro.telemetry.probes.PROBES`, and :class:`capture` scopes both
to one unit of work.

Spans nest lexically via ``with`` blocks and are recorded as Chrome
``trace_event``-shaped dicts (name/category/relative start/duration/args)
on a bounded ring; aggregates (count, total seconds, max seconds) are kept
for *every* span even after the event buffer saturates, so percentile
tables stay honest on long campaigns.

Timing uses ``time.perf_counter()`` against a pair of epochs captured when
the tracer is created: ``epoch_perf`` anchors relative span offsets and
``epoch_wall`` (``time.time()``) lets exporters place the whole capture on
a wall-clock axis shared across processes.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional

from repro.telemetry.probes import (
    PROBES,
    PROBES_ENV_VAR,
    ProbeRecorder,
    disable_probes,
    enable_probes,
)

#: Maximum span events retained per capture; aggregates keep counting after.
MAX_EVENTS = 512

#: Maximum samples retained per histogram reservoir.
MAX_HISTOGRAM_SAMPLES = 256

#: Environment variable that force-enables telemetry at import time: the
#: process-wide default, which ``--trace`` and a dist lease override.
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"


def env_enabled(environ: Optional[Dict[str, str]] = None) -> bool:
    """True when the environment requests telemetry (``REPRO_TELEMETRY``)."""
    env = os.environ if environ is None else environ
    value = env.get(TELEMETRY_ENV_VAR, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


class Span:
    """A live span: records name/category/args and measures wall duration.

    Only created when telemetry is enabled; the disabled path uses
    :data:`NULL_SPAN`.  ``add(**kw)`` merges extra args while the span is
    open (e.g. counter deltas computed inside the ``with`` block).
    """

    __slots__ = ("_tracer", "name", "cat", "args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def add(self, **kw: Any) -> None:
        """Attach additional args to the span before it closes."""
        self.args.update(kw)

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        self._tracer._record(self.name, self.cat, self._t0, t1 - self._t0, self.args)
        return False  # never swallow exceptions


class _NullSpan:
    """Shared no-op span handed out while telemetry is disabled."""

    __slots__ = ()

    def add(self, **kw: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _NullTracer:
    """Tracer stand-in while disabled: one shared instance, zero allocation."""

    __slots__ = ()

    def span(self, name: str, cat: str = "span", **args: Any) -> _NullSpan:
        return NULL_SPAN


class _NullMetrics:
    """Metrics stand-in while disabled."""

    __slots__ = ()

    def incr(self, name: str, value: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


NULL_TRACER = _NullTracer()
NULL_METRICS = _NullMetrics()


class Tracer:
    """Collects spans for one capture (typically one campaign cell)."""

    __slots__ = ("epoch_wall", "epoch_perf", "events", "dropped", "aggregates",
                 "max_events")

    def __init__(self, max_events: int = MAX_EVENTS):
        self.epoch_wall = time.time()
        self.epoch_perf = time.perf_counter()
        self.max_events = max_events
        #: Chrome-shaped span events: name/cat/ts (s, relative)/dur (s)/args.
        self.events: List[Dict[str, Any]] = []
        self.dropped = 0
        #: name -> [count, total_s, max_s]; updated for every span.
        self.aggregates: Dict[str, List[float]] = {}

    def span(self, name: str, cat: str = "span", **args: Any) -> Span:
        return Span(self, name, cat, args)

    def _record(self, name: str, cat: str, t0: float, dur: float,
                args: Dict[str, Any]) -> None:
        agg = self.aggregates.get(name)
        if agg is None:
            self.aggregates[name] = [1, dur, dur]
        else:
            agg[0] += 1
            agg[1] += dur
            if dur > agg[2]:
                agg[2] = dur
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append({
            "name": name,
            "cat": cat,
            "ts": t0 - self.epoch_perf,
            "dur": dur,
            "args": args,
        })


class Metrics:
    """Counters, gauges, and bounded-reservoir histograms."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: name -> {count, total, min, max, samples (bounded)}
        self.histograms: Dict[str, Dict[str, Any]] = {}

    def incr(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = {"count": 0, "total": 0.0, "min": value, "max": value,
                    "samples": []}
            self.histograms[name] = hist
        hist["count"] += 1
        hist["total"] += value
        if value < hist["min"]:
            hist["min"] = value
        if value > hist["max"]:
            hist["max"] = value
        if len(hist["samples"]) < MAX_HISTOGRAM_SAMPLES:
            hist["samples"].append(value)


class Telemetry:
    """The mutable singleton: fields swap, identity never changes."""

    __slots__ = ("enabled", "tracer", "metrics")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer: Any = NULL_TRACER
        self.metrics: Any = NULL_METRICS


TELEMETRY = Telemetry()


def enable() -> None:
    """Turn telemetry on with a fresh tracer/metrics pair."""
    TELEMETRY.tracer = Tracer()
    TELEMETRY.metrics = Metrics()
    TELEMETRY.enabled = True


def disable() -> None:
    """Turn telemetry off; hot paths fall back to the no-op singletons."""
    TELEMETRY.enabled = False
    TELEMETRY.tracer = NULL_TRACER
    TELEMETRY.metrics = NULL_METRICS


def set_instrumentation(trace: bool, probes: bool) -> None:
    """Turn tracing and network probes on or off for this process.

    The one switch behind ``--trace`` and ``--probes``: the CLI calls it
    once, and a distributed worker calls it with the state each lease
    carries, so every cell of a campaign runs under the coordinator's
    setting whoever started the worker.  A switch already in the requested
    state is left alone, recorders included, so a repeated call does
    nothing.  A flipped switch is also written to the environment, where
    child processes spawned afterwards read it.
    """
    if trace != TELEMETRY.enabled:
        if trace:
            enable()
        else:
            disable()
        os.environ[TELEMETRY_ENV_VAR] = "1" if trace else "0"
    if probes != PROBES.enabled:
        if probes:
            enable_probes()
        else:
            disable_probes()
        os.environ[PROBES_ENV_VAR] = "1" if probes else "0"


class capture:
    """Context manager scoping fresh recorders to one unit of work.

    While telemetry is on it swaps in a fresh tracer/metrics pair, and
    while probes are on a fresh :class:`~repro.telemetry.probes.
    ProbeRecorder`; a switch that is off is left alone and its snapshot
    is ``None``.  On exit the previous recorders are restored, so
    captures nest (an audit twin inside a cell gets its own snapshots
    without clobbering the cell's).
    """

    __slots__ = ("_prev_tracer", "_prev_metrics", "_tracer", "_metrics",
                 "_active", "_prev_recorder", "_recorder")

    def __enter__(self) -> "capture":
        self._active = TELEMETRY.enabled
        if self._active:
            self._prev_tracer = TELEMETRY.tracer
            self._prev_metrics = TELEMETRY.metrics
            self._tracer = Tracer()
            self._metrics = Metrics()
            TELEMETRY.tracer = self._tracer
            TELEMETRY.metrics = self._metrics
        self._recorder = None
        if PROBES.enabled:
            self._prev_recorder = PROBES.recorder
            self._recorder = PROBES.recorder = ProbeRecorder()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._active:
            TELEMETRY.tracer = self._prev_tracer
            TELEMETRY.metrics = self._prev_metrics
        if self._recorder is not None:
            PROBES.recorder = self._prev_recorder
        return False

    def snapshot(self) -> Optional[Dict[str, Any]]:
        """Compact dict of everything traced, or None when telemetry is off."""
        if not self._active:
            return None
        return snapshot_of(self._tracer, self._metrics)

    def probe_snapshot(self) -> Optional[Dict[str, Any]]:
        """Probe sidecar of everything sampled, or None when probes are off."""
        if self._recorder is None:
            return None
        return self._recorder.snapshot()


def snapshot_of(tracer: Tracer, metrics: Metrics) -> Dict[str, Any]:
    """Serialize a tracer/metrics pair into the store's ``telemetry`` dict.

    Shape::

        {"t0": <wall epoch>,
         "phases": {phase-name: total_s},      # cat == "phase" spans
         "spans": {name: {count, total_s, max_s}},
         "events": [{name, cat, ts, dur, args}, ...],
         "dropped": n, "events_dropped": n,   # tracer cap (MAX_EVENTS) hits
         "counters": {...}, "gauges": {...},
         "histograms": {name: {count, total, min, max, samples}},
         "sim_s": <total seconds inside backend run spans>}
    """
    phases: Dict[str, float] = {}
    for ev in tracer.events:
        if ev["cat"] == "phase":
            phases[ev["name"]] = phases.get(ev["name"], 0.0) + ev["dur"]
    spans = {
        name: {"count": int(agg[0]), "total_s": agg[1], "max_s": agg[2]}
        for name, agg in tracer.aggregates.items()
    }
    # "sim_s" is the executor's simulate phase alone — scenario runner time
    # with report/audit/store excluded.
    sim_s = phases.get("simulate", 0.0)
    return {
        "t0": tracer.epoch_wall,
        "phases": phases,
        "spans": spans,
        "events": tracer.events,
        "dropped": tracer.dropped,
        # The explicit alias status tables report: span events lost to the
        # per-capture MAX_EVENTS cap (aggregates and phase totals are exact
        # regardless — only the event *list* truncates).
        "events_dropped": tracer.dropped,
        "counters": dict(metrics.counters),
        "gauges": dict(metrics.gauges),
        "histograms": {k: dict(v) for k, v in metrics.histograms.items()},
        "sim_s": sim_s,
    }


class timed:
    """Measure a block; optionally emit a ``phase`` span.

    The single timing idiom for executor phases::

        with timed("simulate") as t:
            payload = runner(...)
        elapsed = t.elapsed

    ``.elapsed`` is always populated (even with telemetry disabled), which
    is what lets the executor keep its ``elapsed_s`` semantics while the
    span only materializes when tracing is on.
    """

    __slots__ = ("phase", "args", "elapsed", "_t0", "_span")

    def __init__(self, phase: Optional[str] = None, **args: Any):
        self.phase = phase
        self.args = args
        self.elapsed = 0.0

    def __enter__(self) -> "timed":
        if self.phase is not None and TELEMETRY.enabled:
            self._span = TELEMETRY.tracer.span(self.phase, cat="phase",
                                               **self.args)
            self._span.__enter__()
        else:
            self._span = None
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = time.perf_counter() - self._t0
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
        return False


if env_enabled():  # pragma: no cover - exercised via subprocess tests
    enable()
