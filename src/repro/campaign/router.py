"""Backend routing: cost-aware resolution of ``auto`` cells + audit sampling.

The planner expands grids into :class:`~repro.campaign.plan.RunSpec`s; this
module decides *where each cell runs*.  A :class:`BackendRouter` is the
policy object :func:`~repro.campaign.plan.plan_campaign` consumes:

1. every cell is profiled (:func:`profile_for` — machine size and traffic
   volume from the scale preset, refined by the scenario's ``cost_hints``)
   and costed from the :data:`~repro.model.cost.COST_MODELS` table: an
   ``auto`` cell under both backends, a concrete one under its own; a
   backend outside the table is rejected;
2. ``auto`` cells default to the higher-fidelity backend (``flit``), and
   are demoted to the cheaper one — greedily, biggest savings first —
   until the plan's total estimated work fits the router's budget;
3. cells the router resolved carry ``routed_from="auto"``, which enters
   the spec hash (SPEC_FORMAT 3) so auto-routed results never alias
   explicitly pinned cache entries.

The module also owns the **audit sample**: a deterministic, seeded subset
of flow-routed cells paired with their flit twins, which the executor
re-runs on the high-fidelity backend to measure flow-vs-flit deltas
(:func:`select_audit_pairs`).
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.campaign.plan import (
    FLOW_ONLY_TAG,
    CampaignPlan,
    RunSpec,
    scale_for,
)
from repro.campaign.registry import scenario_cost_hints, scenario_tags
from repro.model.base import BackendError
from repro.model.cost import COST_MODELS, CostEstimate, WorkloadProfile
from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.store import ArtifactStore

#: Work units one second of recorded wall-clock converts to when a cell's
#: cost is seeded from store history.  Chosen so one second is the same
#: order of magnitude as the static proxies assign a one-second smoke cell
#: (~1e4 units), which keeps ``--budget`` values meaningful whether a plan
#: is costed from proxies, from history, or from a mix of both.
HISTORY_UNITS_PER_SECOND = 10_000.0

#: Recorded runs a (scenario, scale, backend) group needs before its
#: history overrides the static proxy: below that, one unlucky cell (cold
#: caches, a loaded machine) would swing the routing.
HISTORY_MIN_RUNS = 3

#: ``routed_from`` marker of flit audit twins.  An audit twin is *not* a
#: plain flit run — it executes in the audited flow cell's RNG universe —
#: so its hash must never alias an ordinary flit cache entry.
AUDIT_PROVENANCE = "audit"


class BudgetError(ValueError):
    """The plan cannot fit the requested work budget on any routing."""


@dataclass(frozen=True)
class CellCost:
    """Routing outcome of one cell: the concrete spec plus its estimates."""

    #: The resolved (concrete-backend) spec.
    spec: RunSpec
    #: Backend the cell was routed to (== ``spec.backend``).
    chosen: str
    #: Why: ``explicit`` (caller pinned it), ``pinned`` (flow-only tag),
    #: ``fidelity`` (auto default) or ``budget`` (demoted).
    reason: str
    #: Per-backend estimates the decision was made over.
    estimates: Mapping[str, CostEstimate]

    @property
    def work(self) -> float:
        """Estimated work of the cell on its chosen backend."""
        return self.estimates[self.chosen].work


def _flits_per_message(scale, message_bytes: float) -> float:
    """Request flits per message under the scale's NIC packetization."""
    packet_bytes = max(1, scale.packet_payload_bytes)
    flit_bytes = max(1, scale.flit_payload_bytes)
    packets = max(1.0, math.ceil(message_bytes / packet_bytes))
    payload_flits = max(1, math.ceil(packet_bytes / flit_bytes))
    return packets * (1.0 + payload_flits)  # + 1 header flit per packet


def _default_messages(scale) -> float:
    """Generic traffic-volume heuristic for scenarios without cost hints.

    Sized after the built-in sweeps: a ping-pong style exchange plus a few
    messages per rank per iteration of a small collective job.  Scenarios
    whose volume matters for routing should register ``cost_hints``.
    """
    pingpong = 2.0 * (scale.pingpong_repetitions + 1)
    collective = scale.iterations * max(2, scale.small_job_nodes) * 4.0
    return pingpong + collective


def profile_for(spec: RunSpec) -> WorkloadProfile:
    """Build the cost-model profile for one cell.

    The machine comes from the spec's scale preset
    (:func:`~repro.campaign.plan.scale_for`, unseeded — valid for ``auto``
    specs); the traffic volume from the scenario's ``cost_hints`` callable
    when registered, else from :func:`_default_messages`.  Hints may also
    override ``nodes`` for scenarios that build their own (larger)
    topology than the preset's.
    """
    scale = scale_for(spec, seeded=False)
    topo = scale.topology()
    hints_fn = scenario_cost_hints(spec.scenario)
    hints: Dict[str, float] = {}
    if hints_fn is not None:
        hints = dict(hints_fn(scale, **spec.params_dict))
    nodes = int(hints.get("nodes", topo.num_nodes))
    if nodes != topo.num_nodes:
        routers = max(1, nodes // max(1, topo.nodes_per_router))
    else:
        routers = topo.num_routers
    links_per_router = max(
        1,
        (topo.blades_per_chassis - 1)
        + (topo.chassis_per_group - 1)
        + topo.global_links_per_router,
    )
    links = routers * links_per_router + 2 * nodes  # fabric + host links
    messages = float(hints.get("messages", _default_messages(scale)))
    message_bytes = float(
        hints.get("message_bytes", scale.scaled_size(16 * 1024))
    )
    avg_hops = 3.0 + (2.0 if topo.num_groups > 1 else 0.0)
    concurrent = float(hints.get("concurrent_flows", min(messages, 64.0)))
    return WorkloadProfile(
        nodes=nodes,
        routers=routers,
        links=links,
        messages=messages,
        flits_per_message=_flits_per_message(scale, message_bytes),
        avg_hops=avg_hops,
        concurrent_flows=concurrent,
    )


@dataclass(frozen=True)
class CostHistory:
    """Recorded wall-clock history of prior runs, for empirical cost seeding.

    The static cost models are planning proxies; once the store holds real
    ``elapsed_s`` measurements for a scenario on a backend at a scale, those
    measurements *are* the cost — wall-clock seconds are directly comparable
    across backends, which is exactly the property the proxies approximate.
    A (scenario, scale, backend) group needs :data:`HISTORY_MIN_RUNS`
    recorded runs before it overrides the proxy.
    """

    #: (scenario, scale, backend) -> recorded elapsed_s samples.
    samples: Mapping[Tuple[str, str, str], Tuple[float, ...]] = field(
        default_factory=dict
    )

    @staticmethod
    def from_store(store: Optional["ArtifactStore"]) -> "CostHistory":
        """Collect timing samples from a store's index (``None``-safe).

        Telemetry-derived ``sim_s`` (simulate phase only) is preferred over
        ``elapsed_s`` when present: it excludes report/audit/store overhead,
        so backend cost estimates track simulation work, not artifact I/O.
        """
        grouped: Dict[Tuple[str, str, str], List[float]] = {}
        if store is not None:
            for entry in store.index().values():
                elapsed = entry.get("sim_s")
                if not isinstance(elapsed, (int, float)) or elapsed < 0:
                    elapsed = entry.get("elapsed_s")
                if not isinstance(elapsed, (int, float)) or elapsed < 0:
                    continue
                key = (
                    str(entry.get("scenario", "")),
                    str(entry.get("scale", "")),
                    str(entry.get("backend", "")),
                )
                grouped.setdefault(key, []).append(float(elapsed))
        return CostHistory(
            samples={key: tuple(values) for key, values in grouped.items()}
        )

    def work_for(self, scenario: str, scale: str, backend: str) -> Optional[float]:
        """Empirical work estimate, or ``None`` below the evidence bar."""
        values = self.samples.get((scenario, scale, backend), ())
        if len(values) < HISTORY_MIN_RUNS:
            return None
        return statistics.median(values) * HISTORY_UNITS_PER_SECOND

    def runs_for(self, scenario: str, scale: str, backend: str) -> int:
        """How many recorded runs back the (scenario, scale, backend) group."""
        return len(self.samples.get((scenario, scale, backend), ()))


def estimate_cell(
    spec: RunSpec, history: Optional[CostHistory] = None
) -> Dict[str, CostEstimate]:
    """Cost one cell from the :data:`~repro.model.cost.COST_MODELS` table.

    A concrete spec is estimated on its own backend; an ``auto`` spec on
    both, flit first.  A backend outside the table raises
    :class:`~repro.model.base.BackendError`: a cell the router cannot cost
    would plan as free work.

    With a :class:`CostHistory`, a backend whose (scenario, scale) group
    has enough recorded runs gets its estimate seeded from the measured
    wall-clock median instead of the static proxy; the estimate's detail
    then carries ``history_runs`` and ``history_median_s``.
    """
    profile = profile_for(spec)
    backends = tuple(COST_MODELS) if spec.is_auto else (spec.backend,)
    estimates: Dict[str, CostEstimate] = {}
    for name in backends:
        if name not in COST_MODELS:
            raise BackendError(
                f"cell {spec.label()} runs on backend {name!r}, which has no "
                f"cost model (known: {', '.join(COST_MODELS)})"
            )
        estimate = COST_MODELS[name].estimate_cost(profile)
        empirical = (
            None if history is None
            else history.work_for(spec.scenario, spec.scale, name)
        )
        if empirical is not None:
            detail = dict(estimate.detail)
            detail["history_runs"] = float(history.runs_for(spec.scenario, spec.scale, name))
            detail["history_median_s"] = empirical / HISTORY_UNITS_PER_SECOND
            estimate = CostEstimate(backend=name, work=empirical, detail=detail)
        estimates[name] = estimate
    return estimates


@dataclass(frozen=True)
class BackendRouter:
    """Plan-time policy resolving ``auto`` cells to concrete backends.

    An auto cell runs on flit unless ``budget``, a cap on the plan's total
    work, demotes it to flow.  Audit re-runs are *not* a routing concern:
    pass ``audit_fraction`` to :func:`~repro.campaign.executor.execute_plan`
    (or ``--audit-fraction`` on the CLI), which samples the routed plan via
    :func:`select_audit_pairs`.
    """

    budget: Optional[float] = None
    #: Recorded-run history seeding the estimates: cells whose (scenario,
    #: scale, backend) group has :data:`HISTORY_MIN_RUNS` prior runs in the
    #: store are costed from measured wall-clock medians instead of the
    #: static proxies.
    history: Optional[CostHistory] = None

    def __post_init__(self) -> None:
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive")

    def route(self, specs: Sequence[RunSpec]) -> List[CellCost]:
        """Resolve every spec to a concrete backend, honouring the budget.

        Explicitly pinned cells are cost-annotated but never moved; their
        estimated work still counts against the budget.  Raises
        :class:`BudgetError` when even the cheapest routing of every
        ``auto`` cell exceeds the budget.
        """
        chosen: List[str] = []
        reasons: List[str] = []
        estimates: List[Dict[str, CostEstimate]] = []
        for spec in specs:
            cell_estimates = estimate_cell(spec, history=self.history)
            estimates.append(cell_estimates)
            if spec.is_auto:
                # The table lists flit first: the fidelity default.
                chosen.append(next(iter(cell_estimates)))
                reasons.append("fidelity")
            else:
                chosen.append(spec.backend)
                reasons.append(
                    "pinned"
                    if FLOW_ONLY_TAG in scenario_tags(spec.scenario)
                    else "explicit"
                )

        if self.budget is not None:
            total = sum(estimates[i][chosen[i]].work for i in range(len(specs)))
            if total > self.budget:
                # Demote auto cells to their cheapest backend, biggest
                # savings first, until the plan fits.
                demotable = []
                for i, spec in enumerate(specs):
                    if not spec.is_auto:
                        continue
                    cheapest = min(
                        estimates[i], key=lambda name: estimates[i][name].work
                    )
                    savings = estimates[i][chosen[i]].work - estimates[i][cheapest].work
                    if savings > 0:
                        demotable.append((savings, i, cheapest))
                demotable.sort(key=lambda item: (-item[0], item[1]))
                for savings, i, cheapest in demotable:
                    if total <= self.budget:
                        break
                    total -= savings
                    chosen[i] = cheapest
                    reasons[i] = "budget"
                if total > self.budget:
                    raise BudgetError(
                        f"plan needs ~{total:.3g} work unit(s) even on the "
                        f"cheapest routing, over the budget of {self.budget:.3g} "
                        "— raise --budget, shrink the grid, or drop scenarios"
                    )

        cells: List[CellCost] = []
        for i, spec in enumerate(specs):
            resolved = spec.resolve(chosen[i]) if spec.is_auto else spec
            cells.append(
                CellCost(
                    spec=resolved,
                    chosen=chosen[i],
                    reason=reasons[i],
                    estimates=dict(estimates[i]),
                )
            )
        return cells


def select_audit_pairs(
    plan: CampaignPlan, fraction: float
) -> List[Tuple[RunSpec, RunSpec]]:
    """Deterministic, seeded audit sample: flow-routed cells + flit twins.

    Eligible cells run on the flow backend and belong to scenarios the
    flit backend can execute (``flow-only`` scenarios are excluded — there
    is no twin to audit against).  The sample size is
    ``ceil(fraction x eligible)``, so any positive fraction audits at
    least one cell; the draw is seeded from the campaign master seed via
    :func:`repro.sim.rng.derive_seed`, so the same plan always audits the
    same cells.  Pairs come back in plan order.

    The flit twin carries ``routed_from="audit"``: the executor runs it in
    the *flow cell's* RNG universe (same derived run seed, so allocation
    and noise draws are identical and the recorded deltas isolate model
    error from seed variance), which means its result is not a faithful
    plain flit run — the distinct provenance hash keeps it out of the
    ordinary flit cache.  Audit results are cached by the flow spec's hash
    instead (:meth:`~repro.campaign.store.ArtifactStore.save_audit`).
    """
    if fraction <= 0.0:
        return []
    eligible = [
        (index, spec)
        for index, spec in enumerate(plan)
        if spec.backend == "flow"
        and FLOW_ONLY_TAG not in scenario_tags(spec.scenario)
    ]
    if not eligible:
        return []
    count = min(len(eligible), math.ceil(fraction * len(eligible)))
    rng = random.Random(derive_seed(plan.seed, "campaign:audit"))
    sampled = sorted(rng.sample(range(len(eligible)), count))
    pairs: List[Tuple[RunSpec, RunSpec]] = []
    for pick in sampled:
        _, spec = eligible[pick]
        twin = replace(spec, backend="flit", routed_from=AUDIT_PROVENANCE)
        pairs.append((spec, twin))
    return pairs
