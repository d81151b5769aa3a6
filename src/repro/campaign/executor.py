"""Campaign execution: cache lookups, the serial loop and the audit pass.

The executor takes a :class:`~repro.campaign.plan.CampaignPlan`, skips every
spec the :class:`~repro.campaign.store.ArtifactStore` already holds, and
runs the cache misses one by one in this process.  With more than one
worker it hands the plan to the distributed coordinator
(:mod:`repro.campaign.dist`) instead, which runs the same single-cell
runner, :func:`run_cell`, in worker processes.  A cell re-resolves its
scenario from the registry and re-derives the run's master seed from the
:class:`~repro.campaign.plan.RunSpec` alone, so its result is identical
wherever it runs.  Records are always returned in plan order regardless
of which worker finished first.

After the main pass the executor can run **flit audits**: a deterministic,
seeded sample of a flow campaign's cells (``audit_fraction`` > 0, sampled
by :func:`select_audit_pairs`) is re-run on the flit backend and the
flow-vs-flit metric deltas are persisted in the artifact store — the
campaign-level spot-check against the high-fidelity simulator.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.campaign.plan import (
    AUDIT_PROVENANCE,
    FLOW_ONLY_TAG,
    CampaignPlan,
    RunSpec,
    scale_for,
)
from repro.campaign.registry import ScenarioError, get_scenario, scenario_tags
from repro.campaign.store import ArtifactStore, max_abs_rel_delta
from repro.sim.rng import derive_seed
from repro.telemetry.core import capture, timed


@dataclass
class RunRecord:
    """Outcome of one planned run."""

    spec: RunSpec
    payload: Optional[Dict] = None
    report: str = ""
    cached: bool = False
    elapsed_s: float = 0.0
    error: str = ""
    #: Compact telemetry snapshot (phases/spans/counters) when tracing was
    #: enabled for this cell; None otherwise.  Never part of the payload —
    #: payloads must stay byte-identical across runs of the same spec.
    telemetry: Optional[Dict] = None
    #: Probe snapshot (link time series + routing-decision audit) when
    #: network probes were enabled; None otherwise.  Same contract as
    #: ``telemetry``: sidecar data only, never part of the payload.
    probes: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        """Whether the run produced (or re-used) a result."""
        return self.payload is not None and not self.error


@dataclass
class AuditRecord:
    """One flow-vs-flit audit: the audited cell, its twin run, the deltas."""

    #: The flow cell that was audited.
    spec: RunSpec
    #: The concrete flit spec re-run for comparison.
    twin: RunSpec
    #: Outcome of the flit twin run (may be cached, may have failed).
    record: RunRecord
    #: metric name -> {"flow", "flit", "delta"[, "rel"]} over shared metrics.
    deltas: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the audit produced a comparable flit result."""
        return self.record.ok

    def max_abs_rel(self) -> Optional[float]:
        """Largest relative deviation across the compared metrics."""
        return max_abs_rel_delta(self.deltas)


@dataclass
class CampaignResult:
    """All records of one campaign execution, in plan order."""

    plan: CampaignPlan
    records: List[RunRecord] = field(default_factory=list)
    #: Workers that served the run: 1 for the serial loop; on the
    #: coordinator, the worker connections that said hello (0 when every
    #: cell was cached).
    workers: int = 1
    #: Flit audit re-runs of sampled flow cells (post-pass).
    audits: List[AuditRecord] = field(default_factory=list)

    @property
    def executed(self) -> int:
        """Runs actually simulated this invocation."""
        return sum(1 for r in self.records if r.ok and not r.cached)

    @property
    def cached(self) -> int:
        """Runs satisfied from the artifact store."""
        return sum(1 for r in self.records if r.cached)

    @property
    def failed(self) -> int:
        """Runs that raised."""
        return sum(1 for r in self.records if r.error)

    def summary(self) -> str:
        """One-line outcome summary."""
        text = (
            f"{len(self.records)} run(s): {self.executed} executed, "
            f"{self.cached} cached, {self.failed} failed "
            f"({self.workers} worker(s))"
        )
        if self.audits:
            ok = sum(1 for audit in self.audits if audit.ok)
            text += f", {ok}/{len(self.audits)} audit(s)"
        return text


def execute_spec(spec: RunSpec) -> Tuple[Dict, str, float]:
    """Execute one run spec; returns ``(payload, report_text, elapsed_s)``.

    This is the worker entry point: it must derive everything from the
    spec alone.
    """
    from repro.campaign import ensure_builtin_scenarios

    ensure_builtin_scenarios()
    scenario = get_scenario(spec.scenario)
    with timed("simulate", scenario=spec.scenario, backend=spec.backend) as t:
        payload = scenario.runner(scale_for(spec), **spec.params_dict)
    payload = _checked_json(spec, payload)
    with timed("report"):
        report = scenario.render_report(payload)
    return payload, report, t.elapsed


def _checked_json(spec: RunSpec, payload) -> Dict:
    """Round-trip the payload through JSON so cached == fresh results."""
    if not isinstance(payload, dict):
        raise TypeError(
            f"scenario {spec.scenario!r} returned {type(payload).__name__}, "
            "expected a JSON-safe dict"
        )
    try:
        # allow_nan=False: NaN/Infinity are not valid JSON and would poison
        # the store's "shareable/diffable" artifact contract.
        return json.loads(json.dumps(payload, sort_keys=True, allow_nan=False))
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"scenario {spec.scenario!r} returned a non-JSON-safe payload: {exc}"
        ) from exc


ProgressFn = Callable[[int, int, RunRecord], None]


def metric_deltas(flow_payload: Mapping, flit_payload: Mapping) -> Dict[str, Dict[str, float]]:
    """Per-metric flow-vs-flit deltas over the metrics both payloads share.

    Each entry carries the two absolute values, their difference
    (``flow - flit``) and, when the flit value is non-zero, the relative
    deviation ``delta / |flit|``.  Metrics present on only one side are
    skipped — backends legitimately expose extra metrics (e.g. the flow
    solver's ``peak_flows``).
    """
    flow_metrics = flow_payload.get("metrics") if isinstance(flow_payload, Mapping) else None
    flit_metrics = flit_payload.get("metrics") if isinstance(flit_payload, Mapping) else None
    if not isinstance(flow_metrics, Mapping) or not isinstance(flit_metrics, Mapping):
        return {}
    deltas: Dict[str, Dict[str, float]] = {}
    for name in sorted(set(flow_metrics) & set(flit_metrics)):
        try:
            flow_value = float(flow_metrics[name])
            flit_value = float(flit_metrics[name])
        except (TypeError, ValueError):
            continue
        entry = {
            "flow": flow_value,
            "flit": flit_value,
            "delta": flow_value - flit_value,
        }
        if flit_value:
            entry["rel"] = (flow_value - flit_value) / abs(flit_value)
        deltas[name] = entry
    return deltas


def execute_plan(
    plan: CampaignPlan,
    store: Optional[ArtifactStore] = None,
    workers: int = 1,
    progress: Optional[ProgressFn] = None,
    force: bool = False,
    audit_fraction: float = 0.0,
) -> CampaignResult:
    """Execute a plan, using the store as a cache and artifact sink.

    ``workers > 1`` runs the plan on the distributed coordinator with that
    many ``local`` workers (:func:`repro.campaign.dist.run_distributed`);
    ``workers == 1`` runs the cache misses serially in this process.
    Results are in plan order either way.  ``force=True`` re-executes specs
    even when the store already holds them.

    ``audit_fraction > 0`` enables the audit post-pass: a deterministic,
    seeded sample of the plan's flow cells is re-run on the flit
    backend (serially — audits are a small high-fidelity sample by design)
    and the flow-vs-flit deltas are recorded in the result and the store.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > 1:
        from repro.campaign.dist.coordinator import DistOptions, run_distributed

        return run_distributed(
            plan,
            store=store,
            options=DistOptions(workers=workers),
            progress=progress,
            force=force,
            audit_fraction=audit_fraction,
        )
    result = CampaignResult(plan=plan, workers=workers)
    records: List[Optional[RunRecord]] = [None] * len(plan)
    misses: List[Tuple[int, RunSpec]] = []

    for index, spec in enumerate(plan):
        if store is not None and not force and store.has(spec):
            payload = store.load(spec)
            report = payload.get("report", "") if isinstance(payload, dict) else ""
            records[index] = RunRecord(
                spec=spec,
                payload=payload,
                report=report if isinstance(report, str) else "",
                cached=True,
            )
        else:
            misses.append((index, spec))
    total = len(plan)
    reported = 0
    if progress is not None:
        # Announce cache hits up front, in plan order.
        for record in records:
            if record is not None:
                reported += 1
                progress(reported, total, record)

    def finish(index: int, record: RunRecord) -> None:
        nonlocal reported
        records[index] = record
        if record.ok and not record.cached and store is not None:
            store.save(record.spec, record.payload, record.report,
                       record.elapsed_s, telemetry=record.telemetry,
                       probes=record.probes)
        if progress is not None:
            reported += 1
            progress(reported, total, record)

    for index, spec in misses:
        finish(index, run_cell(spec))

    result.records = [r for r in records if r is not None]
    if audit_fraction > 0.0:
        run_audits(plan, result, store, audit_fraction, force=force)
    return result


def select_audit_pairs(
    plan: CampaignPlan, fraction: float
) -> List[Tuple[RunSpec, RunSpec]]:
    """Deterministic, seeded audit sample: flow cells + their flit twins.

    Eligible cells run on the flow backend and belong to scenarios the
    flit backend can execute (``flow-only`` scenarios are excluded — there
    is no twin to audit against).  The sample size is
    ``ceil(fraction x eligible)``, so any positive fraction audits at
    least one cell; the draw is seeded from the campaign master seed via
    :func:`repro.sim.rng.derive_seed`, so the same plan always audits the
    same cells.  Pairs come back in plan order.

    The flit twin carries ``routed_from="audit"``: :func:`run_audits` runs
    it in the *flow cell's* RNG universe (same derived run seed, so
    allocation and noise draws are identical and the recorded deltas
    isolate model error from seed variance), which means its result is not
    a faithful plain flit run — the distinct provenance hash keeps it out
    of the ordinary flit cache.  Audit results are cached by the flow
    spec's hash instead (:meth:`~repro.campaign.store.ArtifactStore.save_audit`).
    """
    if fraction <= 0.0:
        return []
    eligible = [
        spec
        for spec in plan
        if spec.backend == "flow"
        and FLOW_ONLY_TAG not in scenario_tags(spec.scenario)
    ]
    if not eligible:
        return []
    count = min(len(eligible), math.ceil(fraction * len(eligible)))
    rng = random.Random(derive_seed(plan.seed, "campaign:audit"))
    picks = [eligible[i] for i in sorted(rng.sample(range(len(eligible)), count))]
    return [
        (spec, replace(spec, backend="flit", routed_from=AUDIT_PROVENANCE))
        for spec in picks
    ]


def run_audits(
    plan: CampaignPlan,
    result: CampaignResult,
    store: Optional[ArtifactStore],
    fraction: float,
    force: bool = False,
) -> None:
    """The audit post-pass: re-run sampled flow cells on flit, record deltas.

    Each twin runs through :func:`run_cell` like any cell, in the flow
    cell's RNG universe (:meth:`~repro.campaign.plan.RunSpec.run_seed`),
    so the deltas isolate model error.  Only the deltas are stored, keyed
    by the *flow* spec's hash and reused on re-runs (unless ``force``), so
    a repeated audited campaign is as incremental as an unaudited one.
    """
    by_spec = {record.spec: record for record in result.records}
    for flow_spec, twin in select_audit_pairs(plan, fraction):
        flow_record = by_spec.get(flow_spec)
        if flow_record is None or not flow_record.ok:
            continue  # nothing comparable to audit against
        if store is not None and not force and store.has_audit(flow_spec):
            payload = store.load_audit(flow_spec)
            deltas = payload.get("metrics", {}) if isinstance(payload, dict) else {}
            twin_record = RunRecord(
                spec=twin,
                payload={
                    "metrics": {
                        name: entry.get("flit")
                        for name, entry in deltas.items()
                        if isinstance(entry, dict)
                    }
                },
                cached=True,
            )
            result.audits.append(
                AuditRecord(spec=flow_spec, twin=twin, record=twin_record, deltas=deltas)
            )
            continue
        twin_record = run_cell(twin)
        audit = AuditRecord(spec=flow_spec, twin=twin, record=twin_record)
        if twin_record.ok:
            audit.deltas = metric_deltas(flow_record.payload, twin_record.payload)
            if store is not None:
                store.save_audit(flow_spec, twin, audit.deltas)
        result.audits.append(audit)


def run_cell(spec: RunSpec) -> RunRecord:
    """Execute one cell, capturing failures as a record.

    The reusable single-cell runner: everything that executes specs — the
    serial loop and the distributed workers
    (:mod:`repro.campaign.dist.worker`) — goes through here, so a cell's
    outcome is identical no matter which execution substrate ran it.
    """
    with capture() as cap:
        try:
            payload, report, elapsed = execute_spec(spec)
        except ScenarioError as exc:
            # Most likely cause in a worker: a fresh interpreter (a socket
            # worker, or any worker where fork is unavailable) and a
            # scenario registered outside repro.campaign.scenarios.
            return RunRecord(
                spec=spec,
                error=(
                    f"{type(exc).__name__}: {exc} — if this scenario is registered "
                    "in your own module, a spawned worker cannot see it; "
                    "load it with 'repro campaign worker --preload MODULE' or "
                    "use workers=1"
                ),
            )
        except Exception as exc:  # noqa: BLE001 - failures become part of the result
            return RunRecord(spec=spec, error=f"{type(exc).__name__}: {exc}")
    return RunRecord(
        spec=spec,
        payload=payload,
        report=report,
        elapsed_s=elapsed,
        telemetry=cap.snapshot(),
        probes=cap.probe_snapshot(),
    )

