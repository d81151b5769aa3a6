"""UGAL-style adaptive path selection with configurable minimal bias.

Every time a packet is injected, the selector samples two minimal and two
non-minimal candidate paths (Section 2.2), estimates the congestion of each
candidate from

* the *local* output-queue depth at the source router (always current), and
* the *far-end* occupancy of the first hop's downstream buffer, derived from
  flow-control credits and therefore **stale** by ``credit_info_delay``
  cycles — the source of phantom congestion,

multiplies the estimate by the candidate's hop count (longer paths hurt
more), adds the mode's bias to non-minimal candidates, and picks the lowest
score.  Deterministic modes (``MIN_HASH``, ``NMIN_HASH``, ``IN_ORDER``) skip
the scoring entirely.

With probes on, a seeded sample of adaptive decisions is audited: the one
decision path hands the candidates it scored to a read-only audit, which
re-scores each under the live credit view and records whether the choice
would have flipped (see :mod:`repro.telemetry.probes`).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.config import RoutingConfig
from repro.routing.bias import bias_for_mode
from repro.routing.modes import RoutingMode
from repro.telemetry.probes import PROBES, ProbeRecorder
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.paths import PathSampler

Path = Tuple[int, ...]


class PathDecision:
    """Outcome of one routing decision (kept for statistics and tests)."""

    __slots__ = ("path", "minimal", "score", "candidates_considered")

    def __init__(
        self, path: Path, minimal: bool, score: float, candidates_considered: int
    ):
        self.path = path
        self.minimal = minimal
        self.score = score
        self.candidates_considered = candidates_considered

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathDecision):
            return NotImplemented
        return (
            self.path == other.path
            and self.minimal == other.minimal
            and self.score == other.score
            and self.candidates_considered == other.candidates_considered
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "minimal" if self.minimal else "nonminimal"
        return f"PathDecision({self.path}, {kind}, score={self.score})"


class UgalSelector:
    """Per-packet path selection for all routing modes.

    Parameters
    ----------
    topology:
        The Dragonfly link structure.
    config:
        Bias values, candidate counts and the credit-information delay.
    rng:
        Random stream used for candidate sampling (hashed tie-breaking).
    links:
        Mapping ``(src_router, dst_router) -> Link`` covering every fabric
        link, read for congestion.  Each link must be built with this
        config's ``credit_info_delay``: a link's far-end view is stale by
        its own delay, not the reader's.  It may be ``None`` for purely
        structural uses (e.g. tests of path legality), in which case
        congestion is treated as zero everywhere.
    """

    def __init__(
        self,
        topology: DragonflyTopology,
        config: RoutingConfig,
        rng: random.Random,
        links: Optional[dict] = None,
    ):
        self.topology = topology
        self.config = config
        self.rng = rng
        self.links = links
        self.sampler = PathSampler(topology, rng)
        self.decisions = 0
        self.minimal_decisions = 0
        self.nonminimal_decisions = 0
        self._far_weight = config.far_end_weight
        self._info_delay = config.credit_info_delay
        #: (mode, minimal_hops) -> bias; bias_for_mode is pure in the config.
        self._bias_cache: Dict[Tuple[RoutingMode, int], float] = {}

    # -- congestion scoring ----------------------------------------------------

    def _path_score(self, path: Path) -> float:
        """Congestion estimate of a candidate path (lower is better)."""
        hops = len(path) - 1
        if hops <= 0:
            return 0.0
        links = self.links
        if links is None:
            return float(hops)
        link = links[(path[0], path[1])]
        if self._info_delay <= 0:
            far = float(link.capacity - link.credits)
        else:
            far = link.far_congestion()
        port_congestion = link.queue_flits + self._far_weight * far
        return port_congestion * hops + hops

    # -- selection ---------------------------------------------------------------

    def select(
        self, src_router: int, dst_router: int, mode: RoutingMode
    ) -> PathDecision:
        """Choose the path for one packet from ``src_router`` to ``dst_router``."""
        if src_router == dst_router:
            return self._record(PathDecision((src_router,), True, 0.0, 1))
        if mode is RoutingMode.IN_ORDER:
            path = self.sampler.all_minimal(src_router, dst_router)[0]
            return self._record(PathDecision(path, True, self._path_score(path), 1))
        if mode is RoutingMode.MIN_HASH:
            path = self.sampler.minimal(src_router, dst_router)
            return self._record(PathDecision(path, True, self._path_score(path), 1))
        if mode is RoutingMode.NMIN_HASH:
            path = self.sampler.nonminimal(src_router, dst_router)
            return self._record(PathDecision(path, False, self._path_score(path), 1))
        if not mode.is_adaptive:
            raise ValueError(f"unsupported routing mode {mode}")
        if PROBES.enabled:
            recorder = PROBES.recorder
            if recorder is not None and recorder.want_decision():
                return self._record(
                    self._select_adaptive(src_router, dst_router, mode, recorder)
                )
        return self._record(self._select_adaptive(src_router, dst_router, mode))

    def _bias_for(self, mode: RoutingMode, src_router: int, dst_router: int) -> float:
        """Cached non-minimal bias for one (mode, endpoint-pair) decision."""
        if mode is RoutingMode.ADAPTIVE_0:
            return 0.0
        minimal_hops = self.sampler.minimal_hops(src_router, dst_router)
        key = (mode, minimal_hops)
        bias = self._bias_cache.get(key)
        if bias is None:
            bias = bias_for_mode(mode, self.config, minimal_hops)
            self._bias_cache[key] = bias
        return bias

    def _select_adaptive(
        self,
        src_router: int,
        dst_router: int,
        mode: RoutingMode,
        recorder: Optional[ProbeRecorder] = None,
    ) -> PathDecision:
        """Score the minimal, then the non-minimal candidates; keep the best.

        The only adaptive decision path.  Given a probe ``recorder`` (a
        sampled decision), it also hands :meth:`_audit` the candidates, as
        ``(path, minimal, stale score)`` in draw order, and the winner's
        index.
        """
        cfg = self.config
        bias = self._bias_for(mode, src_router, dst_router)
        trail: Optional[list] = None if recorder is None else []

        # Prefer minimal candidates on ties so a zero-bias idle network still
        # routes minimally (matching hardware behaviour at low load): minimal
        # candidates are scored first and only a strictly better score can
        # displace the running best.
        sampler = self.sampler
        score_of = self._path_score
        best_path: Optional[Path] = None
        best_score = 0.0
        best_minimal = True
        best_index = 0
        prev_path: Optional[Path] = None
        prev_score = 0.0
        n_minimal = cfg.minimal_candidates
        for index in range(n_minimal):
            path = sampler.minimal(src_router, dst_router)
            # The sampler returns interned tuples, so two draws of the same
            # minimal route are the *same object*; scoring is pure at a fixed
            # instant, making the cached score exact.
            if path is prev_path:
                score = prev_score
            else:
                score = score_of(path)
                prev_path = path
                prev_score = score
            if best_path is None or score < best_score:
                best_score = score
                best_path = path
                best_index = index
            if trail is not None:
                trail.append((path, True, score))
        penalty = cfg.nonminimal_penalty
        considered = n_minimal + cfg.nonminimal_candidates
        for index in range(n_minimal, considered):
            path = sampler.nonminimal(src_router, dst_router)
            score = score_of(path) * penalty + bias
            if best_path is None or score < best_score:
                best_score = score
                best_path = path
                best_minimal = False
                best_index = index
            if trail is not None:
                trail.append((path, False, score))
        assert best_path is not None
        if trail is not None:
            self._audit(src_router, dst_router, mode, bias, trail, best_index,
                        recorder)
        return PathDecision(best_path, best_minimal, best_score, considered)

    # -- decision audit ----------------------------------------------------------

    def _audit(
        self,
        src_router: int,
        dst_router: int,
        mode: RoutingMode,
        bias: float,
        trail: list,
        chosen: int,
        recorder: ProbeRecorder,
    ) -> None:
        """Record one decision with every candidate re-scored under the live view.

        Reads only: each candidate's first hop gives its queue depth, the
        stale far-end view its score used (``far_congestion`` returns the
        same value again at the same instant) and the live credit view
        (:meth:`repro.network.link.Link.occupancy_view`).  A decision whose
        winner differs under the live view would flip without the
        ``credit_info_delay`` staleness: the phantom-congestion signal.
        """
        penalty = self.config.nonminimal_penalty
        far_weight = self._far_weight
        delay = self._info_delay
        links = self.links
        now = 0
        candidates = []
        live_index = -1
        live_best = 0.0
        for index, (path, minimal, score) in enumerate(trail):
            queue = 0
            far_stale = 0.0
            far_live = 0.0
            # Without a link to read (a structural selector) the score is
            # the hop count alone, the same under either view.
            live = score
            if links is not None:
                link = links[(path[0], path[1])]
                hops = len(path) - 1
                now = link.sim._now
                if delay <= 0:
                    far_stale = float(link.capacity - link.credits)
                else:
                    far_stale = link.far_congestion()
                far_live = float(link.occupancy_view(now))
                queue = link.queue_flits
                live = (queue + far_weight * far_live) * hops + hops
                if not minimal:
                    live = live * penalty + bias
            if live_index < 0 or live < live_best:
                live_index = index
                live_best = live
            candidates.append({
                "path": list(path),
                "minimal": minimal,
                "queue": queue,
                "far_stale": round(far_stale, 3),
                "far_live": round(far_live, 3),
                "score": round(score, 3),
                "score_live": round(live, 3),
            })
        recorder.record_decision({
            "t": now,
            "src": src_router,
            "dst": dst_router,
            "mode": mode.name,
            "bias": bias,
            "penalty": penalty,
            "chosen": chosen,
            "minimal": trail[chosen][1],
            "live_choice": live_index,
            "flip": trail[chosen][0] != trail[live_index][0],
            "candidates": candidates,
        })

    def _record(self, decision: PathDecision) -> PathDecision:
        self.decisions += 1
        if decision.minimal:
            self.minimal_decisions += 1
        else:
            self.nonminimal_decisions += 1
        return decision

    # -- statistics ---------------------------------------------------------------

    @property
    def minimal_fraction(self) -> float:
        """Fraction of all decisions that chose a minimal path."""
        if self.decisions == 0:
            return 1.0
        return self.minimal_decisions / self.decisions

    def reset_statistics(self) -> None:
        """Zero the decision counters (e.g. between experiment phases)."""
        self.decisions = 0
        self.minimal_decisions = 0
        self.nonminimal_decisions = 0

