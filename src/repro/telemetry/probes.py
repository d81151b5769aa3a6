"""Bounded-memory network probes: link time series + routing-decision audit.

The paper's whole mechanism is *observing the network* — per-class (L, s)
counters feeding Algorithm 1 — so this module gives the repo a flight
recorder for exactly that surface: fixed-interval samples of link
occupancy, credit stalls, and NIC counters per link class and per group,
plus a seeded sample of UGAL routing decisions with their candidate
scores under both the stale (delayed-counter) and live views.

The design mirrors :mod:`repro.telemetry.core` deliberately:

* one module-level singleton, :data:`PROBES`, *mutated* (never rebound)
  by :func:`enable_probes` / :func:`disable_probes`, so hot paths cache a
  reference at import time and still observe the current state
  (:func:`repro.telemetry.core.set_instrumentation` is the one switch
  that flips it together with tracing);
* a zero-allocation disabled fast path — when off, the only cost is one
  attribute lookup (``PROBES.enabled``) at decision sites and one
  ``is not None`` check per event in the sim engines (the
  ``probe_hook`` slot stays ``None``);
* ``REPRO_PROBES`` force-enables at import time: the process-wide
  default, which the ``--probes`` flag and a dist lease override;
* :class:`repro.telemetry.core.capture` scopes a fresh recorder to one
  campaign cell and restores the previous one on exit, so captures nest.

Samples are taken every :data:`INTERVAL` cycles and :data:`DECISION_RATE`
of the adaptive decisions are audited; neither is configurable, and both
are written into every sidecar.

Memory is bounded everywhere: each series is a ring that decimates
(drop every other point, double the accept stride) once it hits
:data:`MAX_POINTS`, and the decision audit keeps at most
:data:`MAX_DECISIONS` full records while counters keep counting.

Probes never perturb the simulation: samplers are polled by the event
engines at time-advance boundaries (they schedule no events), sampling
only triggers idempotent lazy credit settling, and the decision audit
draws from its own seeded RNG so the simulation's random streams are
untouched.  Store payloads are byte-identical with probes on or off.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Sampling interval in simulator cycles.
INTERVAL = 256

#: Fraction of adaptive routing decisions sampled into the audit.
DECISION_RATE = 0.02

#: Maximum points per series before decimation halves the resolution.
MAX_POINTS = 512

#: Maximum fully-recorded audit decisions (counters keep counting after).
MAX_DECISIONS = 256

#: Seed for the recorder-owned decision-sampling RNG.  Fixed so audit
#: sampling is reproducible and — critically — independent of the
#: simulation's own random streams.
DECISION_SEED = 0x5EED5

#: Environment variable mirroring ``REPRO_TELEMETRY`` semantics.
PROBES_ENV_VAR = "REPRO_PROBES"


def env_probes_enabled(environ: Optional[Dict[str, str]] = None) -> bool:
    """True when the environment requests probes (``REPRO_PROBES``)."""
    env = os.environ if environ is None else environ
    value = env.get(PROBES_ENV_VAR, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


class RingSeries:
    """One bounded time series: (metric, link class, group) → points.

    Accepts every ``stride``-th offered sample; when the buffer reaches
    ``max_points`` it drops every other retained point and doubles the
    stride, so memory stays bounded while coverage stays roughly uniform
    over the whole run (the classic "halve the resolution, never the
    span" decimation).
    """

    __slots__ = ("metric", "cls", "group", "t", "v", "stride", "_seen",
                 "max_points")

    def __init__(self, metric: str, cls: str, group: int,
                 max_points: int = MAX_POINTS):
        if max_points < 2:
            raise ValueError(f"max_points must be >= 2, got {max_points}")
        self.metric = metric
        self.cls = cls
        self.group = group
        self.max_points = max_points
        self.t: List[int] = []
        self.v: List[float] = []
        self.stride = 1
        self._seen = 0

    def __len__(self) -> int:
        return len(self.t)

    @property
    def samples_seen(self) -> int:
        """How many samples were offered (accepted + strided away)."""
        return self._seen

    def add(self, t: int, v: float) -> None:
        """Offer one sample; retained only on the current stride."""
        n = self._seen
        self._seen = n + 1
        if n % self.stride:
            return
        if len(self.t) >= self.max_points:
            # Keep points at even buffer positions: those sit on sample
            # indices that are multiples of the doubled stride, so the
            # retained grid stays aligned with future accepts.
            self.t[:] = self.t[::2]
            self.v[:] = self.v[::2]
            self.stride *= 2
        self.t.append(t)
        self.v.append(v)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; values rounded to keep sidecars compact."""
        return {
            "metric": self.metric,
            "cls": self.cls,
            "group": self.group,
            "t": list(self.t),
            "v": [round(float(x), 4) for x in self.v],
            "stride": self.stride,
            "samples_seen": self._seen,
        }


class ProbeRecorder:
    """Collects probe series and audit decisions for one capture (cell)."""

    __slots__ = ("interval", "decision_rate", "series", "decisions",
                 "decisions_seen", "decisions_sampled", "flips", "backend",
                 "max_points", "max_decisions", "_rng")

    def __init__(self, seed: int = DECISION_SEED,
                 max_points: int = MAX_POINTS,
                 max_decisions: int = MAX_DECISIONS):
        self.interval = INTERVAL
        self.decision_rate = DECISION_RATE
        self.max_points = max_points
        self.max_decisions = max_decisions
        #: (metric, cls, group) -> RingSeries
        self.series: Dict[Tuple[str, str, int], RingSeries] = {}
        self.decisions: List[Dict[str, Any]] = []
        self.decisions_seen = 0
        self.decisions_sampled = 0
        self.flips = 0
        #: Which backend filled the recorder ("flit" or "flow").
        self.backend: Optional[str] = None
        self._rng = random.Random(seed)

    def series_for(self, metric: str, cls: str, group: int) -> RingSeries:
        """The (lazily created) series for one metric/class/group cell."""
        key = (metric, cls, group)
        series = self.series.get(key)
        if series is None:
            series = RingSeries(metric, cls, group, self.max_points)
            self.series[key] = series
        return series

    def want_decision(self) -> bool:
        """Seeded coin flip: should this routing decision be audited?

        Draws from the recorder's own RNG — never the simulation's — so
        enabling the audit cannot shift any simulated random stream.
        """
        self.decisions_seen += 1
        return self._rng.random() < self.decision_rate

    def record_decision(self, record: Dict[str, Any]) -> None:
        """Store one audited decision (bounded; flip counter unbounded)."""
        self.decisions_sampled += 1
        if record.get("flip"):
            self.flips += 1
        if len(self.decisions) < self.max_decisions:
            self.decisions.append(record)

    def snapshot(self) -> Dict[str, Any]:
        """Serialize into the store's ``probes/<hash>.json`` sidecar shape."""
        ordered = sorted(self.series.items(), key=lambda kv: kv[0])
        return {
            "version": 1,
            "backend": self.backend,
            "interval": self.interval,
            "decision_rate": self.decision_rate,
            "series": [series.to_dict() for _, series in ordered],
            "decisions": list(self.decisions),
            "decisions_seen": self.decisions_seen,
            "decisions_sampled": self.decisions_sampled,
            "flips": self.flips,
        }


class ProbeSampler:
    """Fixed-interval sampler polled through a simulator's ``probe_hook``.

    Engines check ``now >= sampler.next_due`` at time-advance boundaries
    and call :meth:`sample`; the sampler never schedules events, so the
    event stream — and therefore every payload — is untouched.
    Subclasses implement :meth:`collect`.
    """

    __slots__ = ("recorder", "interval", "next_due")

    def __init__(self, recorder: ProbeRecorder):
        self.recorder = recorder
        self.interval = recorder.interval
        # First sample fires at the first time advance, anchoring t=0-ish
        # state; afterwards the grid aligns to multiples of the interval.
        self.next_due = 0

    def sample(self, now: int) -> None:
        self.collect(now)
        interval = self.interval
        self.next_due = now - now % interval + interval

    def collect(self, now: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Probes:
    """The mutable singleton: fields swap, identity never changes."""

    __slots__ = ("enabled", "recorder")

    def __init__(self) -> None:
        self.enabled = False
        self.recorder: Optional[ProbeRecorder] = None


PROBES = Probes()


def enable_probes() -> None:
    """Turn probes on with a fresh recorder."""
    PROBES.recorder = ProbeRecorder()
    PROBES.enabled = True


def disable_probes() -> None:
    """Turn probes off; hot paths see ``PROBES.enabled`` False again."""
    PROBES.enabled = False
    PROBES.recorder = None


@contextmanager
def probes_paused() -> Iterator[None]:
    """Record nothing inside the block, then restore the recorder.

    A network built inside samples no links, and no UGAL decision inside
    is audited.  This is for side runs of a cell, such as a cluster job's
    isolated baseline: their samples would land in the cell's series,
    which are keyed only by (metric, class, group), and restart them at
    t=0.
    """
    recorder, PROBES.recorder = PROBES.recorder, None
    try:
        yield
    finally:
        PROBES.recorder = recorder


if env_probes_enabled():  # pragma: no cover - exercised via subprocess tests
    enable_probes()
