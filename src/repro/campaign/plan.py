"""Sweep planning: parameter grids expanded into content-hashed run specs.

A :class:`RunSpec` pins everything a run depends on — scenario name, one
point of the parameter grid, the experiment scale preset, the campaign
master seed and the network-model backend — and derives from it (a) a
stable SHA-256 content hash used as the cache key by
:class:`repro.campaign.store.ArtifactStore` and (b) the per-run master
seed, via :func:`repro.sim.rng.derive_seed`, so every grid point draws
from an independent but reproducible random universe.

Backend routing
---------------

``backend="auto"`` asks the planner to pick the substrate: the cell is
costed under both backends (:data:`repro.model.cost.COST_MODELS`) and a
:class:`~repro.campaign.router.BackendRouter` resolves it to a concrete
backend at plan time, optionally under a total work budget.  An
unresolved ``auto`` spec has **no** content hash — only concrete,
executable specs are cacheable — and a routed spec records its provenance
in ``routed_from``, which enters the canonical form (SPEC_FORMAT 3) so
auto-routed results are cached separately from explicitly pinned ones.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.campaign.registry import (
    SCALAR_TYPES,
    Scenario,
    ScenarioError,
    get_scenario,
    scenario_tags,
)
from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.router import BackendRouter, CellCost
    from repro.experiments.harness import ExperimentScale

#: Bump when the RunSpec -> result contract changes; invalidates caches.
#: Format 2 added the network-model backend to the canonical form.  Format 3
#: adds the routing provenance (``routed_from``) for specs the planner
#: resolved from ``backend="auto"`` — and is emitted *only* for those specs:
#: a concrete-backend spec keeps the byte-identical format-2 canonical form,
#: so existing caches stay valid, while an auto-routed spec can never be
#: served a format-2 (explicitly pinned) result.
SPEC_FORMAT = 3

#: Canonical-form version emitted for specs without routing provenance.
LEGACY_SPEC_FORMAT = 2

#: Default campaign master seed (the paper year, as used by the harness).
DEFAULT_SEED = 2019

#: Pseudo-backend asking the planner to choose the substrate per cell.
AUTO_BACKEND = "auto"

#: Scenarios carrying this tag only run on the flow backend (their runners
#: pin it); the planner records that in the spec so hashes and cache
#: entries are labelled truthfully regardless of the campaign's --backend.
FLOW_ONLY_TAG = "flow-only"


@dataclass(frozen=True)
class RunSpec:
    """One planned run: a scenario at one grid point, scale, seed and backend."""

    scenario: str
    #: Sorted (axis, value) pairs — tuple form keeps the spec hashable.
    params: Tuple[Tuple[str, object], ...] = ()
    scale: str = "smoke"
    seed: int = DEFAULT_SEED
    #: Network-model backend the run executes on (``flit``, ``flow``, or the
    #: transient ``auto`` awaiting resolution by a router).
    backend: str = "flit"
    #: Who picked the backend: ``None`` for explicitly pinned specs,
    #: ``"auto"`` when a :class:`~repro.campaign.router.BackendRouter`
    #: resolved it.  Enters the canonical form (and therefore the hash).
    routed_from: Optional[str] = None

    @staticmethod
    def make(
        scenario: str,
        params: Optional[Mapping[str, object]] = None,
        scale: str = "smoke",
        seed: int = DEFAULT_SEED,
        backend: str = "flit",
    ) -> "RunSpec":
        """Build a spec from a plain params mapping (validated, sorted).

        Scenarios tagged ``flow-only`` (looked up in the registry, tolerant
        of unregistered names) are pinned to ``backend="flow"`` here — their
        runners force that backend, and the spec hash must say so: a flow
        result must never be cached under a flit label.  The pin applies to
        ``backend="auto"`` too: a flow-only cell has nothing to route.
        """
        items = sorted((params or {}).items())
        for key, value in items:
            if not isinstance(value, SCALAR_TYPES):
                raise TypeError(
                    f"run parameter {key}={value!r} is not a JSON scalar"
                )
        if FLOW_ONLY_TAG in scenario_tags(scenario):
            backend = "flow"
        return RunSpec(
            scenario=scenario,
            params=tuple(items),
            scale=scale,
            seed=seed,
            backend=backend,
        )

    @property
    def params_dict(self) -> Dict[str, object]:
        """The grid point as a plain dict."""
        return dict(self.params)

    @property
    def is_auto(self) -> bool:
        """Whether the backend is still awaiting plan-time resolution."""
        return self.backend == AUTO_BACKEND

    def resolve(self, backend: str, routed_from: str = AUTO_BACKEND) -> "RunSpec":
        """A concrete copy of an ``auto`` spec, with provenance recorded."""
        if not self.is_auto:
            raise ValueError(
                f"spec {self.label()} already runs on {self.backend!r}"
            )
        return replace(self, backend=backend, routed_from=routed_from)

    def canonical(self) -> Dict[str, object]:
        """The canonical JSON form the content hash is computed over.

        Specs without routing provenance emit the format-2 form unchanged
        (byte-identical hashes, caches carry over); routed specs emit
        format 3 with the extra ``routed_from`` entry.
        """
        form: Dict[str, object] = {
            "format": SPEC_FORMAT if self.routed_from else LEGACY_SPEC_FORMAT,
            "scenario": self.scenario,
            "params": self.params_dict,
            "scale": self.scale,
            "seed": self.seed,
            "backend": self.backend,
        }
        if self.routed_from:
            form["routed_from"] = self.routed_from
        return form

    def spec_hash(self) -> str:
        """Stable content hash — the cache / artifact key.

        Only concrete specs hash: an unresolved ``auto`` spec does not name
        an executable run, and handing out a hash for one would let cache
        entries alias across whatever backend it later resolves to.
        """
        if self.is_auto:
            raise ValueError(
                f"spec {self.label()} has backend 'auto' — resolve it to a "
                "concrete backend (plan with a BackendRouter) before hashing"
            )
        text = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def to_wire(self) -> Dict[str, object]:
        """Transport form for the distributed executor's JSON frames.

        Unlike :meth:`canonical` (which exists to be hashed and therefore
        omits/normalizes fields), the wire form round-trips the spec
        exactly: ``from_wire(to_wire(spec)) == spec``, so a worker on
        another host executes and hashes the identical spec the
        coordinator planned.
        """
        form: Dict[str, object] = {
            "scenario": self.scenario,
            "params": self.params_dict,
            "scale": self.scale,
            "seed": self.seed,
            "backend": self.backend,
        }
        if self.routed_from is not None:
            form["routed_from"] = self.routed_from
        return form

    @staticmethod
    def from_wire(form: Mapping[str, object]) -> "RunSpec":
        """Rebuild a spec from its wire form (validating the params).

        Deliberately *not* :meth:`make`: the flow-only pin and any routing
        already happened on the coordinator, and re-applying policy here
        could change the spec (and its hash) between hosts.
        """
        params = form.get("params") or {}
        if not isinstance(params, Mapping):
            raise TypeError(f"wire spec params must be a mapping, got {params!r}")
        items = sorted(params.items())
        for key, value in items:
            if not isinstance(value, SCALAR_TYPES):
                raise TypeError(
                    f"wire spec parameter {key}={value!r} is not a JSON scalar"
                )
        routed_from = form.get("routed_from")
        return RunSpec(
            scenario=str(form["scenario"]),
            params=tuple(items),
            scale=str(form["scale"]),
            seed=int(form["seed"]),  # type: ignore[arg-type]
            backend=str(form["backend"]),
            routed_from=str(routed_from) if routed_from is not None else None,
        )

    def run_seed(self) -> int:
        """Master seed for this run, derived from the campaign seed + spec.

        Uses :func:`repro.sim.rng.derive_seed` so two grid points never share
        random streams, yet re-running the same spec — serially or in a
        worker process — reproduces the run exactly.
        """
        return derive_seed(self.seed, f"campaign:{self.spec_hash()}")

    def label(self) -> str:
        """Short human-readable identifier for progress lines."""
        if self.backend == "flit" and not self.routed_from:
            suffix = ""
        elif self.routed_from:
            suffix = f"@{self.backend}({self.routed_from})"
        else:
            suffix = f"@{self.backend}"
        if not self.params:
            return f"{self.scenario}{suffix}"
        params = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.scenario}[{params}]{suffix}"


def scale_for(spec: RunSpec, seeded: bool = True) -> "ExperimentScale":
    """Resolve the :class:`ExperimentScale` a spec runs (or is costed) at.

    This is the one place a spec's ``scale`` string becomes a preset — the
    executor and the planner's cost estimation must agree on it or the
    estimates describe a different machine than the run uses.

    ``seeded=True`` (execution) threads the derived run seed and the
    backend into the scale, so every network built through the harness
    resolves on the requested substrate.  ``seeded=False`` (planning)
    resolves the preset alone — valid for unresolved ``auto`` specs, which
    have no hash and therefore no run seed yet.
    """
    from repro.experiments.harness import ExperimentScale

    scale = ExperimentScale.preset(spec.scale)
    if seeded:
        scale = scale.with_seed(spec.run_seed()).with_backend(spec.backend)
    return scale


def _format_work(work: float) -> str:
    """Work units for humans: compact scientific-ish notation."""
    return f"{work:,.0f}" if work < 1e6 else f"{work:.3g}"


@dataclass(frozen=True)
class CampaignPlan:
    """An ordered, de-duplicated list of runs, optionally cost-annotated."""

    name: str
    specs: Tuple[RunSpec, ...] = ()
    #: Per-spec routing/cost annotation (parallel to ``specs``) when the
    #: plan went through a :class:`~repro.campaign.router.BackendRouter`;
    #: empty for blind (fixed-backend) plans.
    costs: Tuple["CellCost", ...] = ()
    #: Total-work budget the routing honoured, if any.
    budget: Optional[float] = None
    #: Campaign master seed (drives the audit sample, among other things).
    seed: int = DEFAULT_SEED

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @property
    def total_work(self) -> Optional[float]:
        """Estimated total work of the plan, if cost-annotated."""
        if not self.costs:
            return None
        return sum(cell.work for cell in self.costs)

    def describe(self) -> str:
        """One line per planned run (hash + label), plus the budget report."""
        lines = [f"campaign {self.name!r}: {len(self.specs)} run(s)"]
        if not self.costs:
            for spec in self.specs:
                lines.append(f"  {spec.spec_hash()}  {spec.label()}")
            return "\n".join(lines)
        for spec, cell in zip(self.specs, self.costs):
            lines.append(
                f"  {spec.spec_hash()}  {spec.label()}  "
                f"~{_format_work(cell.work)} units on {cell.chosen} ({cell.reason})"
            )
        per_backend: Dict[str, Tuple[int, float]] = {}
        for cell in self.costs:
            count, work = per_backend.get(cell.chosen, (0, 0.0))
            per_backend[cell.chosen] = (count + 1, work + cell.work)
        breakdown = ", ".join(
            f"{backend}: {count} cell(s) ~{_format_work(work)}"
            for backend, (count, work) in sorted(per_backend.items())
        )
        total = self.total_work or 0.0
        lines.append(f"  estimated work: {_format_work(total)} unit(s) — {breakdown}")
        if self.budget is not None:
            used = 100.0 * total / self.budget if self.budget else 0.0
            lines.append(
                f"  budget: {_format_work(self.budget)} unit(s) — "
                f"within budget ({used:.0f}% allocated)"
            )
        return "\n".join(lines)


def _expand_raw(
    spec: Scenario,
    scale: str,
    seed: int,
    overrides: Mapping[str, Sequence[object]],
    backend: str,
) -> List[RunSpec]:
    """Grid expansion alone — specs may still carry ``backend="auto"``.

    ``overrides`` name only axes the scenario has (:func:`plan_campaign`
    filters them).
    """
    axes: Dict[str, Tuple[object, ...]] = {k: tuple(v) for k, v in spec.axes.items()}
    for axis, values in overrides.items():
        if not values:
            raise ValueError(f"override for axis {axis!r} is empty")
        axes[axis] = tuple(values)
    names = sorted(axes)
    out: List[RunSpec] = []
    for combo in itertools.product(*(axes[name] for name in names)):
        out.append(
            RunSpec.make(
                spec.name,
                params=dict(zip(names, combo)),
                scale=scale,
                seed=seed,
                backend=backend,
            )
        )
    return out


def plan_campaign(
    scenario_names: Sequence[str],
    scale: str = "smoke",
    seed: int = DEFAULT_SEED,
    overrides: Optional[Mapping[str, Sequence[object]]] = None,
    name: str = "campaign",
    backend: str = "flit",
    router: Optional["BackendRouter"] = None,
) -> CampaignPlan:
    """Expand several scenarios into one de-duplicated, ordered plan.

    Scenario order follows the request; within a scenario, grid order:
    axes sorted by name, values in the order the scenario (or the
    override) lists them.  Scenarios tagged ``flow-only`` expand with
    ``backend="flow"`` no matter what was requested (enforced in
    :meth:`RunSpec.make`).  Axis overrides are applied to every scenario
    that has the axis and rejected only if *no* requested scenario has it.

    With ``backend="auto"`` (or an explicit ``router``) the whole plan is
    routed in one pass, so the router's budget constrains the campaign's
    *total* estimated work, and the returned plan carries per-cell cost
    annotations (:attr:`CampaignPlan.costs`).
    """
    overrides = dict(overrides or {})
    matched: set = set()
    specs: List[RunSpec] = []
    seen: set = set()
    for scenario_name in scenario_names:
        spec = get_scenario(scenario_name)
        applicable = {k: v for k, v in overrides.items() if k in spec.axes}
        matched.update(applicable)
        for run in _expand_raw(spec, scale, seed, applicable, backend):
            # De-duplicate on the frozen spec itself: unresolved auto specs
            # have no hash yet, and spec equality is exactly as strict.
            if run not in seen:
                seen.add(run)
                specs.append(run)
    unmatched = set(overrides) - matched
    if unmatched:
        raise ScenarioError(
            f"override axes {sorted(unmatched)} match no requested scenario"
        )
    if backend == AUTO_BACKEND or router is not None:
        from repro.campaign.router import BackendRouter

        active = router or BackendRouter()
        cells = active.route(specs)
        return CampaignPlan(
            name=name,
            specs=tuple(cell.spec for cell in cells),
            costs=tuple(cells),
            budget=active.budget,
            seed=seed,
        )
    return CampaignPlan(name=name, specs=tuple(specs), seed=seed)
