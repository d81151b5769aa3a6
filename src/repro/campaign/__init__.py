"""Campaign engine: registered scenarios, sweep planning, parallel execution.

The campaign subsystem turns the per-figure experiment scripts into a
system: scenarios are named, parameterized specs registered in a global
registry (:mod:`repro.campaign.registry`); a sweep planner expands parameter
grids into content-hashed :class:`~repro.campaign.plan.RunSpec`s
(:mod:`repro.campaign.plan`); the executor runs them with per-run seeds
derived from :mod:`repro.sim.rng` (:mod:`repro.campaign.executor`); and a
result cache + artifact store skips runs whose spec hash already has a
stored result (:mod:`repro.campaign.store`).  Every parallel run, on one
host or many, goes through the coordinator/worker layer
(:mod:`repro.campaign.dist`): cells leased one at a time to forked or
connected workers over a length-prefixed JSON socket transport, results
merged into the store as they arrive, a dead worker's cell re-leased,
killed campaigns resumable from the store.
"""

from repro.campaign.plan import (
    CampaignPlan,
    RunSpec,
    plan_campaign,
    scale_for,
)
from repro.campaign.registry import (
    Scenario,
    get_scenario,
    register,
    register_figure,
    scenario,
    scenario_names,
)
from repro.campaign.executor import (
    AuditRecord,
    CampaignResult,
    RunRecord,
    execute_plan,
    execute_spec,
    metric_deltas,
    run_audits,
    run_cell,
    select_audit_pairs,
)
from repro.campaign.store import ArtifactStore
from repro.campaign.dist import (
    Coordinator,
    DistOptions,
    run_distributed,
)

__all__ = [
    "ArtifactStore",
    "AuditRecord",
    "CampaignPlan",
    "CampaignResult",
    "Coordinator",
    "DistOptions",
    "RunRecord",
    "RunSpec",
    "Scenario",
    "ensure_builtin_scenarios",
    "execute_plan",
    "execute_spec",
    "get_scenario",
    "metric_deltas",
    "plan_campaign",
    "register",
    "register_figure",
    "run_audits",
    "run_cell",
    "run_distributed",
    "scale_for",
    "scenario",
    "scenario_names",
    "select_audit_pairs",
]


def ensure_builtin_scenarios() -> None:
    """Import every module that registers built-in scenarios (idempotent)."""
    from repro.campaign import scenarios

    scenarios.ensure_registered()
