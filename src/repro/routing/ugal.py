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
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple

from repro.config import RoutingConfig
from repro.routing.bias import bias_for_mode
from repro.routing.modes import RoutingMode
from repro.telemetry.probes import PROBES
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.paths import PathSampler

Path = Tuple[int, ...]
#: Returns the Link object carrying traffic from the first to the second router.
LinkProbe = Callable[[int, int], "object"]


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
    link_probe:
        Callable mapping ``(src_router, dst_router)`` to the corresponding
        :class:`repro.network.link.Link`, used to read congestion.  It may be
        ``None`` for purely structural uses (e.g. tests of path legality), in
        which case congestion is treated as zero everywhere.
    links:
        Optional direct mapping ``(src_router, dst_router) -> Link`` covering
        every fabric link.  When given, the per-candidate congestion probe
        skips the ``link_probe`` indirection (the scoring runs four times per
        injected packet, so the call overhead is measurable).
    """

    def __init__(
        self,
        topology: DragonflyTopology,
        config: RoutingConfig,
        rng: random.Random,
        link_probe: Optional[LinkProbe] = None,
        links: Optional[dict] = None,
    ):
        self.topology = topology
        self.config = config
        self.rng = rng
        self.link_probe = link_probe
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
        if links is not None:
            link = links[(path[0], path[1])]
        elif self.link_probe is not None:
            link = self.link_probe(path[0], path[1])
        else:
            return float(hops)
        delay = self._info_delay
        if delay <= 0:
            far = float(link.capacity - link.credits)
        else:
            far = link.far_congestion(delay)
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
                    self._select_audited(src_router, dst_router, mode, recorder)
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
        self, src_router: int, dst_router: int, mode: RoutingMode
    ) -> PathDecision:
        cfg = self.config
        bias = self._bias_for(mode, src_router, dst_router)

        # Prefer minimal candidates on ties so a zero-bias idle network still
        # routes minimally (matching hardware behaviour at low load): minimal
        # candidates are scored first and only a strictly better score can
        # displace the running best.
        sampler = self.sampler
        score_of = self._path_score
        best_path: Optional[Path] = None
        best_score = 0.0
        best_minimal = True
        considered = 0
        prev_path: Optional[Path] = None
        prev_score = 0.0
        for _ in range(cfg.minimal_candidates):
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
            considered += 1
        penalty = cfg.nonminimal_penalty
        for _ in range(cfg.nonminimal_candidates):
            path = sampler.nonminimal(src_router, dst_router)
            score = score_of(path) * penalty + bias
            if best_path is None or score < best_score:
                best_score = score
                best_path = path
                best_minimal = False
            considered += 1
        assert best_path is not None
        return PathDecision(best_path, best_minimal, best_score, considered)

    # -- decision audit ----------------------------------------------------------

    def _select_audited(
        self, src_router: int, dst_router: int, mode: RoutingMode, recorder
    ) -> PathDecision:
        """An adaptive decision that also records its full audit trail.

        Decision-identical to :meth:`_select_adaptive`: candidates are
        sampled up front, which consumes the RNG in the same order as the
        interleaved scalar loop (scoring draws nothing), the stale scores
        use the exact :meth:`_path_score` arithmetic and congestion reads,
        and the minimal-first strictly-better tie-break is reproduced.  On
        top of that, every candidate is re-scored under the *live* credit
        view (:meth:`repro.network.link.Link.occupancy_view` — a pure
        read), flagging decisions that would flip without the
        ``credit_info_delay`` staleness: the phantom-congestion signal.
        """
        cfg = self.config
        bias = self._bias_for(mode, src_router, dst_router)
        sampler = self.sampler
        minimal_paths = [
            sampler.minimal(src_router, dst_router)
            for _ in range(cfg.minimal_candidates)
        ]
        nonminimal_paths = [
            sampler.nonminimal(src_router, dst_router)
            for _ in range(cfg.nonminimal_candidates)
        ]
        paths = minimal_paths + nonminimal_paths
        n_min = len(minimal_paths)
        penalty = cfg.nonminimal_penalty
        far_weight = self._far_weight
        delay = self._info_delay
        links = self.links
        probe = self.link_probe
        now = 0
        candidates = []
        best_idx = -1
        best_score = 0.0
        best_minimal = True
        live_idx = -1
        live_best = 0.0
        for i, path in enumerate(paths):
            minimal = i < n_min
            hops = len(path) - 1
            queue = 0
            far_stale = 0.0
            far_live = 0.0
            if hops <= 0:
                score = 0.0
                live = 0.0
            else:
                if links is not None:
                    link = links[(path[0], path[1])]
                elif probe is not None:
                    link = probe(path[0], path[1])
                else:
                    link = None
                if link is None:
                    score = float(hops)
                    live = score
                else:
                    now = link.sim._now
                    # Stale view first, computed exactly as _path_score
                    # would (including its mutations — which the unaudited
                    # decision would have performed identically); the live
                    # view after it is a pure read.
                    if delay <= 0:
                        far_stale = float(link.capacity - link.credits)
                    else:
                        far_stale = link.far_congestion(delay)
                    far_live = float(link.occupancy_view(now))
                    queue = link.queue_flits
                    score = (queue + far_weight * far_stale) * hops + hops
                    live = (queue + far_weight * far_live) * hops + hops
            if not minimal:
                score = score * penalty + bias
                live = live * penalty + bias
            if best_idx < 0 or score < best_score:
                best_idx = i
                best_score = score
                best_minimal = minimal
            if live_idx < 0 or live < live_best:
                live_idx = i
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
        flip = paths[best_idx] != paths[live_idx]
        recorder.record_decision({
            "t": now,
            "src": src_router,
            "dst": dst_router,
            "mode": mode.name,
            "bias": bias,
            "penalty": penalty,
            "chosen": best_idx,
            "minimal": best_minimal,
            "live_choice": live_idx,
            "flip": flip,
            "candidates": candidates,
        })
        return PathDecision(paths[best_idx], best_minimal, best_score, len(paths))

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

