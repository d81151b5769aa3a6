"""Fixed-backend campaign planning and flit audits.

Covers the spec hash's format-2/format-3 rules, the plan-time backend
check, the executor's flit-audit sample and post-pass, a pin over every
built-in scenario's plan and audit draw, and the CLI surface
(``--backend``, ``--audit-fraction``, ``--set``).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter

import pytest

from repro.campaign import (
    ArtifactStore,
    ensure_builtin_scenarios,
    execute_plan,
    plan_campaign,
    scenario_names,
    select_audit_pairs,
)
from repro.campaign.executor import metric_deltas
from repro.campaign.plan import (
    AUDIT_PROVENANCE,
    DEFAULT_SEED,
    LEGACY_SPEC_FORMAT,
    SPEC_FORMAT,
    RunSpec,
    scale_for,
)
from repro.campaign.registry import Scenario, ScenarioError, register
from repro.experiments.cli import campaign_main, parse_override
from repro.model.base import BackendError
from repro.sim.rng import RandomStreams


# -- test scenario ------------------------------------------------------------------

_LOADS = ("tiny", "small", "big", "huge")


def _toy_runner(scale, *, load="tiny"):
    """Cheap deterministic runner; payload depends on the run seed/backend."""
    streams = RandomStreams(scale.seed)
    values = [streams.randint("rt", 0, 10_000) for _ in range(4)]
    return {
        "metrics": {"total": float(sum(values)), "first": float(values[0])},
        "data": {"backend": scale.backend, "load": load},
        "report": f"rt load={load} total={sum(values)}",
    }


TOY = Scenario(
    name="_audit-toy",
    description="cheap deterministic scenario for audit tests",
    axes={"load": _LOADS},
    runner=_toy_runner,
)


@pytest.fixture(scope="module", autouse=True)
def _registered():
    ensure_builtin_scenarios()
    try:
        register(TOY)
    except ScenarioError:
        pass  # already registered by a previous module run in this process
    yield


def _flow_plan(loads=("tiny", "small"), seed=DEFAULT_SEED):
    """A toy plan on the flow backend."""
    return plan_campaign(
        ["_audit-toy"], overrides={"load": loads}, backend="flow", seed=seed
    )


# -- specs --------------------------------------------------------------------------

class TestSpecs:
    def test_flow_only_scenarios_pin_to_flow(self):
        params = {"mode": "ADAPTIVE_0", "message_kib": 64, "noise": "none"}
        flit = RunSpec.make("bisection-full", params, backend="flit")
        flow = RunSpec.make("bisection-full", params, backend="flow")
        # The pin is not provenance: no routed_from, identical hash.
        assert flit.backend == "flow" and flit.routed_from is None
        assert flit.spec_hash() == flow.spec_hash()

    def test_scale_for_threads_backend_and_seed(self):
        spec = RunSpec.make("_audit-toy", {"load": "tiny"}, backend="flow")
        scale = scale_for(spec)
        assert scale.backend == "flow" and scale.seed == spec.run_seed()

    def test_unknown_backend_is_rejected_at_plan_time(self):
        for backend in ("auto", "packet"):
            with pytest.raises(BackendError, match="known: flit, flow"):
                plan_campaign(["_audit-toy"], backend=backend)


class TestSpecFormatMigration:
    """SPEC_FORMAT 3: provenance hashes in; plain-spec hashes carry over."""

    def test_format_constants(self):
        assert SPEC_FORMAT == 3 and LEGACY_SPEC_FORMAT == 2

    def test_concrete_spec_keeps_byte_identical_format2_hash(self):
        """Unchanged canonical form => unchanged hash (cache carry-over)."""
        spec = RunSpec.make("_audit-toy", {"load": "big"}, backend="flow", seed=7)
        legacy_form = {
            "format": 2,
            "scenario": "_audit-toy",
            "params": {"load": "big"},
            "scale": "smoke",
            "seed": 7,
            "backend": "flow",
        }
        text = json.dumps(legacy_form, sort_keys=True, separators=(",", ":"))
        legacy_hash = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        assert spec.canonical() == legacy_form
        assert spec.spec_hash() == legacy_hash

    def test_routed_spec_emits_format3_with_provenance(self):
        [(_, twin)] = select_audit_pairs(_flow_plan(loads=("big",)), 1.0)
        form = twin.canonical()
        assert form["format"] == SPEC_FORMAT
        assert form["routed_from"] == AUDIT_PROVENANCE


# -- audit selection & execution ----------------------------------------------------

class TestAuditSelection:
    def test_sample_is_deterministic_and_in_plan_order(self):
        plan = _flow_plan(loads=_LOADS)
        once = select_audit_pairs(plan, 0.5)
        twice = select_audit_pairs(plan, 0.5)
        assert once == twice
        assert len(once) == math.ceil(0.5 * len(plan))
        order = [spec for spec in plan]
        indices = [order.index(flow_spec) for flow_spec, _ in once]
        assert indices == sorted(indices)

    def test_any_positive_fraction_audits_at_least_one_cell(self):
        plan = _flow_plan()
        assert len(select_audit_pairs(plan, 0.01)) == 1

    def test_zero_fraction_and_flit_plans_audit_nothing(self):
        assert select_audit_pairs(_flow_plan(), 0.0) == []
        flit_plan = plan_campaign(["_audit-toy"], overrides={"load": ("tiny",)})
        assert select_audit_pairs(flit_plan, 1.0) == []

    def test_flow_only_scenarios_are_excluded(self):
        plan = plan_campaign(
            ["bisection-stress-large"],
            overrides={"mode": ("ADAPTIVE_0",), "noise": ("none",)},
            backend="flow",
        )
        assert select_audit_pairs(plan, 1.0) == []

    def test_twin_is_a_flit_spec_with_audit_provenance(self):
        plan = _flow_plan()
        for flow_spec, twin in select_audit_pairs(plan, 1.0):
            assert twin.backend == "flit" and twin.routed_from == "audit"
            assert twin.scenario == flow_spec.scenario
            assert twin.params == flow_spec.params
            assert twin.scale == flow_spec.scale and twin.seed == flow_spec.seed
            assert twin.spec_hash() != flow_spec.spec_hash()
            # It runs on flit in the flow cell's random universe.
            scale = scale_for(twin)
            assert scale.backend == "flit"
            assert scale.seed == twin.run_seed() == flow_spec.run_seed()
            # An audit twin must never alias a plain (cacheable) flit run.
            plain = RunSpec.make(
                twin.scenario, twin.params_dict, scale=twin.scale,
                seed=twin.seed, backend="flit",
            )
            assert twin.spec_hash() != plain.spec_hash()
            assert twin.label().endswith("@flit(audit)")


class TestAuditExecution:
    def test_metric_deltas_compares_shared_metrics_only(self):
        flow = {"metrics": {"a": 2.0, "b": 0.0, "flow_only": 1.0}}
        flit = {"metrics": {"a": 1.0, "b": 0.0, "flit_only": 2.0}}
        deltas = metric_deltas(flow, flit)
        assert set(deltas) == {"a", "b"}
        assert deltas["a"] == {"flow": 2.0, "flit": 1.0, "delta": 1.0, "rel": 1.0}
        assert "rel" not in deltas["b"]  # zero flit value: no relative delta
        assert metric_deltas({}, flit) == {}

    def test_audit_post_pass_records_and_persists_deltas(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        plan = _flow_plan()
        result = execute_plan(plan, store=store, audit_fraction=1.0)
        assert result.failed == 0
        assert len(result.audits) == len(plan)
        assert "audit(s)" in result.summary()
        for audit in result.audits:
            assert audit.ok and audit.twin.backend == "flit"
            assert "total" in audit.deltas
            assert store.has_audit(audit.spec)
            payload = store.load_audit(audit.spec)
            assert payload["flit_hash"] == audit.twin.spec_hash()
            assert payload["metrics"] == audit.deltas
            # The twin ran with a foreign (flow-derived) seed, so its
            # result must NOT enter the ordinary run cache.
            assert not store.has(audit.twin)

    def test_audit_twin_runs_in_the_flow_cells_rng_universe(self, tmp_path):
        """Same derived seed => the seed-driven toy metrics match exactly."""
        plan = _flow_plan()
        result = execute_plan(plan, audit_fraction=1.0)
        for audit in result.audits:
            assert audit.deltas["total"]["delta"] == 0.0
            assert audit.max_abs_rel() == 0.0

    def test_audits_are_cached_by_flow_hash_on_rerun(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        plan = _flow_plan()
        first = execute_plan(plan, store=store, audit_fraction=1.0)
        assert all(not audit.record.cached for audit in first.audits)
        second = execute_plan(plan, store=store, audit_fraction=1.0)
        assert all(audit.record.cached for audit in second.audits)
        assert [a.deltas for a in first.audits] == [a.deltas for a in second.audits]

    def test_audits_skipped_without_flow_cells(self, tmp_path):
        plan = plan_campaign(["_audit-toy"], overrides={"load": ("tiny",)})
        result = execute_plan(plan, audit_fraction=1.0)
        assert result.audits == []


# -- plan pin -----------------------------------------------------------------------

class TestPlanPin:
    """Every built-in scenario's fixed-backend plan and audit draw, pinned.

    One plan of every built-in scenario (test toys start with ``_`` and
    are left out) per scale (``smoke``, ``paper``) and backend (``flit``,
    ``flow``): its ``describe()`` text, which lists every spec hash and
    label, and its 10% audit sample, one ``flow_hash->twin_hash label``
    line per pair.  A moved spec hash, label or audit draw moves the
    digest.
    """

    DIGEST = "cd16ce135f36a14b29897a36a6cc7c0ce244db19c5269e5083a3fd13b881468f"

    COUNTS = {"scenarios": 16, "cells": 332, "audits": 10}

    def test_builtin_plans_match_the_pin(self):
        names = [name for name in scenario_names() if not name.startswith("_")]
        counts = Counter(scenarios=len(names))
        digest = hashlib.sha256()
        for scale in ("smoke", "paper"):
            for backend in ("flit", "flow"):
                plan = plan_campaign(names, scale=scale, backend=backend)
                counts["cells"] += len(plan)
                lines = [plan.describe()]
                for flow_spec, twin in select_audit_pairs(plan, 0.1):
                    counts["audits"] += 1
                    lines.append(
                        f"{flow_spec.spec_hash()}->{twin.spec_hash()} {twin.label()}"
                    )
                for line in lines:
                    digest.update(line.encode("utf-8"))
                    digest.update(b"\n")
        assert dict(counts) == self.COUNTS
        assert digest.hexdigest() == self.DIGEST


# -- CLI ----------------------------------------------------------------------------

class TestCliOverrides:
    def test_valid_overrides_still_parse(self):
        assert parse_override("x=1,2") == ("x", [1, 2])
        assert parse_override("b=true") == ("b", [True])

    def test_empty_value_list_names_the_axis(self):
        with pytest.raises(ValueError, match="lists no values for axis 'x'"):
            parse_override("x=")
        with pytest.raises(ValueError, match="lists no values"):
            parse_override("x=   ")

    def test_empty_token_reports_position(self):
        with pytest.raises(ValueError, match="empty value at position 2"):
            parse_override("x=1,,2")
        with pytest.raises(ValueError, match="empty value at position 1"):
            parse_override("x=,5")

    def test_missing_axis_name_rejected(self):
        with pytest.raises(ValueError, match="names no axis"):
            parse_override("=1,2")


class TestCliAudits:
    """`repro campaign run --backend flow --audit-fraction F` end to end."""

    def test_flow_campaign_audits_and_reruns_cached(self, tmp_path, capsys):
        args = [
            "run", "pingpong-placement",
            "--backend", "flow",
            "--audit-fraction", "1.0",
            "--set", "placement=inter-groups",
            "--set", "message_kib=4",
            "--set", "noise=none,light",
            "--store", str(tmp_path / "store"),
        ]
        # Dry run: the plan and the audit schedule, nothing executed.
        assert campaign_main(args + ["--dry-run"]) == 0
        out = capsys.readouterr().out
        assert out.count("@flow") == 2
        assert "audits: 2 flit re-run(s) scheduled" in out
        assert out.count("@flit(audit)") == 2
        assert "cache: 0/2 already stored" in out

        # Real run: flow cells executed, each with a flit audit re-run.
        assert campaign_main(args) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 cached" in out
        assert out.count("[audit]") == 2
        store = ArtifactStore(tmp_path / "store")
        assert len(store.audit_index()) == 2
        audit_files = sorted((tmp_path / "store" / "audits").glob("*.json"))
        assert len(audit_files) == 2
        payload = json.loads(audit_files[0].read_text())
        assert "routed_from" not in payload["flow_spec"]
        assert payload["flit_spec"]["backend"] == "flit"
        assert payload["flit_spec"]["routed_from"] == "audit"
        assert payload["metrics"]  # flow-vs-flit deltas persisted

        # Rerun: both cells and both audits come from the store.
        assert campaign_main(args) == 0
        out = capsys.readouterr().out
        assert "0 executed, 2 cached" in out
        assert out.count("(cached)") == 2  # the cells
        assert out.count("(cached, ") == 2  # their audits

    def test_auto_backend_and_budget_are_rejected(self, tmp_path):
        store = ["--store", str(tmp_path / "store")]
        for extra in (["--backend", "auto"], ["--budget", "5000"]):
            with pytest.raises(SystemExit) as exc:
                campaign_main(["run", "_audit-toy", *extra, *store])
            assert exc.value.code == 2

    def test_invalid_audit_fraction_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            campaign_main(
                ["run", "_audit-toy", "--audit-fraction", "2.0",
                 "--store", str(tmp_path / "store")]
            )

    def test_status_reports_audits(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "store")
        plan = _flow_plan()
        execute_plan(plan, store=store, audit_fraction=1.0)
        capsys.readouterr()
        assert campaign_main(["status", "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "flow-vs-flit delta(s)" in out
