"""Sweep planning: parameter grids expanded into content-hashed run specs.

A :class:`RunSpec` pins everything a run depends on — scenario name, one
point of the parameter grid, the experiment scale preset, the campaign
master seed and the network-model backend — and derives from it (a) a
stable SHA-256 content hash used as the cache key by
:class:`repro.campaign.store.ArtifactStore` and (b) the per-run master
seed, via :func:`repro.sim.rng.derive_seed`, so every grid point draws
from an independent but reproducible random universe.

A campaign runs on the backend its caller names, one of
:data:`repro.model.base.BACKENDS`; :func:`plan_campaign` rejects any
other name.  Only flit audit twins
(:func:`repro.campaign.executor.select_audit_pairs`) carry a
``routed_from`` provenance, which enters the canonical form
(SPEC_FORMAT 3) so an audit result never aliases a plain flit run.
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
from repro.model.base import BACKENDS, BackendError
from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.harness import ExperimentScale

#: Bump when the RunSpec -> result contract changes; invalidates caches.
#: Format 2 added the network-model backend to the canonical form.  Format 3
#: adds the provenance (``routed_from``) and is emitted *only* for specs that
#: carry one — flit audit twins (``"audit"``), and the auto-routed cells of
#: older stores (``"auto"``): every other spec keeps the byte-identical
#: format-2 canonical form, so existing caches stay valid, while a spec
#: with provenance can never be served a format-2 result.
SPEC_FORMAT = 3

#: Canonical-form version emitted for specs without routing provenance.
LEGACY_SPEC_FORMAT = 2

#: Default campaign master seed (the paper year, as used by the harness).
DEFAULT_SEED = 2019

#: ``routed_from`` marker of flit audit twins.  An audit twin is *not* a
#: plain flit run — it executes in the audited flow cell's RNG universe
#: (:meth:`RunSpec.run_seed`) — so its hash must never alias an ordinary
#: flit cache entry.
AUDIT_PROVENANCE = "audit"

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
    #: Network-model backend the run executes on (``flit`` or ``flow``).
    backend: str = "flit"
    #: Provenance of a spec the caller did not plan: ``"audit"`` for a flit
    #: audit twin, ``None`` otherwise.  Enters the canonical form (and
    #: therefore the hash).
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
        result must never be cached under a flit label.
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

    def canonical(self) -> Dict[str, object]:
        """The canonical JSON form the content hash is computed over.

        Specs without provenance emit the format-2 form unchanged
        (byte-identical hashes, caches carry over); specs with one emit
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
        """Stable content hash — the cache / artifact key."""
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

        Deliberately *not* :meth:`make`: the flow-only pin already happened
        on the coordinator, and re-applying policy here could change the
        spec (and its hash) between hosts.
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
        worker process — reproduces the run exactly.  A flit audit twin
        takes its flow cell's seed: it replays the audited run's
        allocation and noise draws, so the flow-vs-flit deltas measure the
        flow model's error, not seed-to-seed variance.
        """
        spec = self
        if self.routed_from == AUDIT_PROVENANCE:
            spec = replace(self, backend="flow", routed_from=None)
        return derive_seed(self.seed, f"campaign:{spec.spec_hash()}")

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


def scale_for(spec: RunSpec) -> "ExperimentScale":
    """Resolve the :class:`ExperimentScale` a spec runs at.

    The spec's ``scale`` preset, with the derived run seed and the backend
    threaded in, so every network built through the harness resolves on
    the requested substrate.
    """
    from repro.experiments.harness import ExperimentScale

    scale = ExperimentScale.preset(spec.scale)
    return scale.with_seed(spec.run_seed()).with_backend(spec.backend)


@dataclass(frozen=True)
class CampaignPlan:
    """An ordered, de-duplicated list of runs."""

    name: str
    specs: Tuple[RunSpec, ...] = ()
    #: Campaign master seed (drives the audit sample, among other things).
    seed: int = DEFAULT_SEED

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def describe(self) -> str:
        """One line per planned run: hash + label."""
        lines = [f"campaign {self.name!r}: {len(self.specs)} run(s)"]
        for spec in self.specs:
            lines.append(f"  {spec.spec_hash()}  {spec.label()}")
        return "\n".join(lines)


def _expand_raw(
    spec: Scenario,
    scale: str,
    seed: int,
    overrides: Mapping[str, Sequence[object]],
    backend: str,
) -> List[RunSpec]:
    """Grid expansion alone.

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
) -> CampaignPlan:
    """Expand several scenarios into one de-duplicated, ordered plan.

    Scenario order follows the request; within a scenario, grid order:
    axes sorted by name, values in the order the scenario (or the
    override) lists them.  Scenarios tagged ``flow-only`` expand with
    ``backend="flow"`` no matter what was requested (enforced in
    :meth:`RunSpec.make`).  Axis overrides are applied to every scenario
    that has the axis and rejected only if *no* requested scenario has it.
    A backend outside :data:`~repro.model.base.BACKENDS` raises
    :class:`~repro.model.base.BackendError` here, before anything runs.
    """
    if backend not in BACKENDS:
        raise BackendError(
            f"unknown network-model backend {backend!r} (known: {', '.join(BACKENDS)})"
        )
    overrides = dict(overrides or {})
    matched: set = set()
    specs: List[RunSpec] = []
    seen: set = set()
    for scenario_name in scenario_names:
        spec = get_scenario(scenario_name)
        applicable = {k: v for k, v in overrides.items() if k in spec.axes}
        matched.update(applicable)
        for run in _expand_raw(spec, scale, seed, applicable, backend):
            if run not in seen:
                seen.add(run)
                specs.append(run)
    unmatched = set(overrides) - matched
    if unmatched:
        raise ScenarioError(
            f"override axes {sorted(unmatched)} match no requested scenario"
        )
    return CampaignPlan(name=name, specs=tuple(specs), seed=seed)
