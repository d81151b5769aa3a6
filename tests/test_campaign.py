"""Tests for the campaign engine: registry, planner, executor, store, CLI."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    ArtifactStore,
    ensure_builtin_scenarios,
    execute_plan,
    execute_spec,
    plan_campaign,
)
from repro.campaign.plan import CampaignPlan, RunSpec
from repro.campaign.registry import (
    Scenario,
    ScenarioError,
    get_scenario,
    register,
    scenario,
    scenario_names,
)
from repro.experiments.cli import campaign_main, main, parse_override
from repro.sim.rng import RandomStreams


# -- test scenarios -----------------------------------------------------------------

def _toy_runner(scale, *, x=1, flavor="a"):
    """Cheap deterministic runner: derives numbers from the run's seed."""
    streams = RandomStreams(scale.seed)
    values = [streams.randint("toy", 0, 10_000) for _ in range(5)]
    return {
        "metrics": {"total": float(sum(values)) * x},
        "data": {"values": values, "flavor": flavor},
        "report": f"toy x={x} flavor={flavor} total={sum(values)}",
    }


TOY = Scenario(
    name="_toy",
    description="cheap deterministic scenario for the executor tests",
    axes={"x": (1, 2), "flavor": ("a", "b")},
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


# -- registry -----------------------------------------------------------------------

class TestRegistry:
    def test_builtin_figures_registered(self):
        names = scenario_names(tag="figure")
        assert {"figure3", "figure4", "figure7", "figure8", "table1"} <= set(names)

    def test_builtin_sweeps_registered(self):
        assert {"pingpong-placement", "routing-mode-pingpong", "policy-comparison"} <= set(
            scenario_names(tag="sweep")
        )

    def test_unknown_scenario_error_lists_known(self):
        with pytest.raises(ScenarioError, match="figure3"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ScenarioError, match="already registered"):
            register(TOY)

    def test_decorator_registers_and_validates_axes(self):
        with pytest.raises(ScenarioError, match="JSON scalar"):
            @scenario(name="_bad-axes", axes={"a": ([1, 2],)})
            def _bad(scale, *, a):
                return {}

    def test_grid_size(self):
        assert get_scenario("_toy").grid_size() == 4
        assert get_scenario("figure3").grid_size() == 1


# -- planner ------------------------------------------------------------------------

class TestPlanner:
    def test_spec_hash_stable_and_sensitive(self):
        a = RunSpec.make("_toy", {"x": 1, "flavor": "a"}, scale="smoke", seed=1)
        b = RunSpec.make("_toy", {"flavor": "a", "x": 1}, scale="smoke", seed=1)
        assert a.spec_hash() == b.spec_hash()  # param order is canonicalized
        assert a.spec_hash() != a.__class__.make("_toy", {"x": 2, "flavor": "a"}).spec_hash()
        changed_seed = RunSpec.make("_toy", {"x": 1, "flavor": "a"}, scale="smoke", seed=2)
        assert a.spec_hash() != changed_seed.spec_hash()
        changed_scale = RunSpec.make("_toy", {"x": 1, "flavor": "a"}, scale="paper", seed=1)
        assert a.spec_hash() != changed_scale.spec_hash()

    def test_run_seeds_are_independent_per_grid_point(self):
        specs = plan_campaign(["_toy"]).specs
        seeds = [spec.run_seed() for spec in specs]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [spec.run_seed() for spec in specs]  # and reproducible

    def test_non_scalar_param_rejected(self):
        with pytest.raises(TypeError, match="JSON scalar"):
            RunSpec.make("_toy", {"x": [1, 2]})

    def test_expansion_is_deterministic_full_product(self):
        specs = plan_campaign(["_toy"]).specs
        assert len(specs) == 4
        assert specs == plan_campaign(["_toy"]).specs
        assert [s.params_dict for s in specs] == [
            {"flavor": "a", "x": 1},
            {"flavor": "a", "x": 2},
            {"flavor": "b", "x": 1},
            {"flavor": "b", "x": 2},
        ]

    def test_overrides_replace_axis_values(self):
        specs = plan_campaign(["_toy"], overrides={"x": (7,)}).specs
        assert {s.params_dict["x"] for s in specs} == {7}
        assert len(specs) == 2

    def test_unknown_override_axis_rejected(self):
        with pytest.raises(ScenarioError, match="match no requested scenario"):
            plan_campaign(["_toy"], overrides={"bogus": (1,)})

    def test_plan_deduplicates(self):
        plan = plan_campaign(["_toy", "_toy"])
        assert len(plan) == 4

    def test_plan_describe_mentions_hashes(self):
        plan = plan_campaign(["_toy"], overrides={"x": (1,), "flavor": ("a",)})
        text = plan.describe()
        assert plan.specs[0].spec_hash() in text
        assert "_toy[flavor=a,x=1]" in text


# -- store --------------------------------------------------------------------------

class TestStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        spec = RunSpec.make("_toy", {"x": 1, "flavor": "a"})
        assert not store.has(spec)
        payload = {"metrics": {"total": 3.0}, "data": {"values": [1, 2]}}
        store.save(spec, payload, report="toy report", elapsed=0.5)
        assert store.has(spec)
        assert store.load(spec) == payload
        assert store.report_path(spec).read_text().strip() == "toy report"

    def test_result_artifact_is_byte_stable(self, tmp_path):
        payload = {"b": 2, "a": {"z": [1.5, 2], "y": "s"}}
        spec = RunSpec.make("_toy", {"x": 1, "flavor": "a"})
        store1 = ArtifactStore(tmp_path / "one")
        store2 = ArtifactStore(tmp_path / "two")
        store1.save(spec, payload)
        store2.save(spec, dict(reversed(list(payload.items()))))
        assert store1.result_path(spec).read_bytes() == store2.result_path(spec).read_bytes()

    def test_index_survives_reopen(self, tmp_path):
        root = tmp_path / "store"
        spec = RunSpec.make("_toy", {"x": 2, "flavor": "b"})
        ArtifactStore(root).save(spec, {"metrics": {"total": 1.0}})
        reopened = ArtifactStore(root)
        assert reopened.has(spec)
        assert reopened.summary() == {"_toy": 1}

    def test_csv_export_flattens_metrics(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.save(RunSpec.make("_toy", {"x": 1, "flavor": "a"}), {"metrics": {"total": 9.0}})
        path = store.export_csv(tmp_path / "out.csv")
        text = path.read_text()
        assert "metric.total" in text.splitlines()[0]
        assert "9.0" in text

    def test_load_missing_raises(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(KeyError):
            store.load(RunSpec.make("_toy", {"x": 1, "flavor": "a"}))

    def test_empty_store_csv_has_header(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        path = store.export_csv(tmp_path / "out.csv")
        header = path.read_text().splitlines()[0]
        assert header.startswith("hash,scenario,scale,seed,params")

    def test_family_rollups_aggregate_per_scenario(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.save(
            RunSpec.make("_toy", {"x": 1, "flavor": "a"}, seed=0),
            {"metrics": {"total": 1.0}},
            elapsed=2.0,
        )
        store.save(
            RunSpec.make("_toy", {"x": 2, "flavor": "b"}, seed=1),
            {"metrics": {"total": 2.0}},
            elapsed=4.0,
        )
        rollups = store.family_rollups()
        assert len(rollups) == 1
        rollup = rollups[0]
        assert rollup["scenario"] == "_toy"
        assert rollup["runs"] == 2
        assert rollup["seeds"] == 2
        assert rollup["scales"] == ["smoke"]
        assert rollup["elapsed_total_s"] == pytest.approx(6.0)
        assert rollup["elapsed_p50_s"] == pytest.approx(3.0)

    def test_family_rollups_empty_store(self, tmp_path):
        assert ArtifactStore(tmp_path / "store").family_rollups() == []

    def test_two_writers_sharing_a_store_merge_index(self, tmp_path):
        root = tmp_path / "shared"
        writer_a = ArtifactStore(root)
        writer_b = ArtifactStore(root)  # opened before a's save, as a second CLI would
        spec_a = RunSpec.make("_toy", {"x": 1, "flavor": "a"})
        spec_b = RunSpec.make("_toy", {"x": 2, "flavor": "b"})
        writer_a.save(spec_a, {"metrics": {"total": 1.0}})
        writer_b.save(spec_b, {"metrics": {"total": 2.0}})
        reopened = ArtifactStore(root)
        assert reopened.has(spec_a) and reopened.has(spec_b)


# -- executor -----------------------------------------------------------------------

class TestExecutor:
    def test_serial_execution_in_plan_order(self):
        plan = plan_campaign(["_toy"])
        result = execute_plan(plan, workers=1)
        assert result.executed == 4 and result.cached == 0 and result.failed == 0
        assert [r.spec for r in result.records] == list(plan.specs)

    def test_payloads_are_json_roundtripped(self):
        spec = RunSpec.make("_toy", {"x": 1, "flavor": "a"})
        payload, report, elapsed = execute_spec(spec)
        assert payload == json.loads(json.dumps(payload))
        assert "toy" in report
        assert elapsed >= 0.0

    def test_nan_payload_rejected(self):
        try:
            register(
                Scenario(
                    name="_nan",
                    description="returns NaN",
                    axes={},
                    runner=lambda scale: {"metrics": {"bad": float("nan")}},
                )
            )
        except ScenarioError:
            pass
        with pytest.raises(TypeError, match="non-JSON-safe"):
            execute_spec(RunSpec.make("_nan"))

    def test_failure_captured_as_record(self):
        bad = CampaignPlan(
            name="bad",
            specs=(RunSpec.make("pingpong-placement",
                                {"placement": "nope", "message_kib": 4, "noise": "none"}),),
        )
        result = execute_plan(bad)
        assert result.failed == 1
        assert "placement" in result.records[0].error
        assert not result.records[0].ok

    def test_cache_hits_second_invocation(self, tmp_path):
        """Acceptance: a second invocation is a >= 90 % cache hit."""
        store = ArtifactStore(tmp_path / "store")
        plan = plan_campaign(["_toy"])
        first = execute_plan(plan, store=store, workers=2)
        assert first.executed == len(plan) and first.cached == 0
        second = execute_plan(plan, store=store, workers=2)
        assert second.executed == 0 and second.cached == len(plan)
        assert second.cached / len(plan) >= 0.9
        # cached payloads are identical to the fresh ones
        assert [r.payload for r in second.records] == [r.payload for r in first.records]

    def test_force_re_executes(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        plan = plan_campaign(["_toy"], overrides={"x": (1,), "flavor": ("a",)})
        execute_plan(plan, store=store)
        forced = execute_plan(plan, store=store, force=True)
        assert forced.executed == 1 and forced.cached == 0

    def test_progress_reports_every_run(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        plan = plan_campaign(["_toy"])
        seen = []
        execute_plan(plan, store=store, progress=lambda done, total, rec: seen.append((done, total)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            execute_plan(plan_campaign(["_toy"]), workers=0)


class TestDeterminism:
    """Same RunSpec, serial vs. parallel executor -> byte-identical JSON."""

    def _plan(self):
        return plan_campaign(
            ["pingpong-placement"],
            overrides={"message_kib": (4,), "noise": ("none", "light")},
        )

    def test_serial_and_parallel_results_byte_identical(self, tmp_path):
        plan = self._plan()
        serial_store = ArtifactStore(tmp_path / "serial")
        parallel_store = ArtifactStore(tmp_path / "parallel")
        serial = execute_plan(plan, store=serial_store, workers=1)
        parallel = execute_plan(plan, store=parallel_store, workers=4)
        assert serial.failed == 0 and parallel.failed == 0
        for spec in plan:
            a = serial_store.result_path(spec).read_bytes()
            b = parallel_store.result_path(spec).read_bytes()
            assert a == b, f"artifact for {spec.label()} differs serial vs parallel"

    def test_repeated_execution_byte_identical(self, tmp_path):
        spec = RunSpec.make(
            "pingpong-placement", {"placement": "inter-groups", "message_kib": 4, "noise": "light"}
        )
        one = json.dumps(execute_spec(spec)[0], sort_keys=True)
        two = json.dumps(execute_spec(spec)[0], sort_keys=True)
        assert one.encode() == two.encode()


class TestFigureScenarios:
    """Acceptance: figure experiments run as scenarios with artifacts on disk."""

    def test_figure_campaign_writes_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        plan = plan_campaign(["figure3", "figure4"])
        result = execute_plan(plan, store=store, workers=2)
        assert result.failed == 0 and result.executed == 2
        for spec in plan:
            assert store.result_path(spec).exists()
            assert store.report_path(spec).exists()
        fig3 = store.load(plan.specs[0])
        assert "Figure 3" in fig3["report"]
        assert any(key.startswith("median.") for key in fig3["metrics"])
        assert "samples" in fig3["data"]
        fig4 = store.load(plan.specs[1])
        assert "Figure 4" in fig4["report"]


# -- CLI ---------------------------------------------------------------------------

class TestCampaignCli:
    def test_parse_override(self):
        assert parse_override("x=1,2") == ("x", [1, 2])
        assert parse_override("noise=none,light") == ("noise", ["none", "light"])
        assert parse_override("f=1.5") == ("f", [1.5])
        assert parse_override("b=true") == ("b", [True])
        with pytest.raises(ValueError):
            parse_override("oops")

    def test_list_subcommand(self, capsys):
        assert campaign_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pingpong-placement" in out
        assert "figure3" in out

    def test_list_tag_filter(self, capsys):
        assert campaign_main(["list", "--tag", "figure"]) == 0
        out = capsys.readouterr().out
        assert "figure3" in out
        assert "pingpong-placement" not in out

    def test_dry_run_prints_plan_without_executing(self, tmp_path, capsys):
        code = campaign_main(
            ["run", "all", "--dry-run", "--store", str(tmp_path / "store")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "run(s)" in out and "cache: 0/" in out
        assert not (tmp_path / "store" / "results").exists() or not any(
            (tmp_path / "store" / "results").iterdir()
        )

    def test_run_and_status_roundtrip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = campaign_main(
            ["run", "_toy", "--workers", "2", "--store", store,
             "--csv", str(tmp_path / "out.csv")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 executed, 0 cached" in out
        code = campaign_main(["run", "_toy", "--workers", "2", "--store", store])
        assert code == 0
        assert "0 executed, 4 cached" in capsys.readouterr().out
        assert campaign_main(["status", "--store", store]) == 0
        assert "_toy: 4" in capsys.readouterr().out
        assert (tmp_path / "out.csv").exists()

    def test_unknown_scenario_is_a_parser_error(self, tmp_path):
        with pytest.raises(SystemExit):
            campaign_main(["run", "not-a-scenario", "--store", str(tmp_path / "s")])

    def test_scenario_error_message_is_not_repr_quoted(self):
        message = str(ScenarioError("unknown scenario 'x'"))
        assert message == "unknown scenario 'x'"  # KeyError would add quotes

    def test_read_only_commands_do_not_create_store_dirs(self, tmp_path, capsys):
        store = tmp_path / "nonexistent"
        assert campaign_main(["status", "--store", str(store)]) == 0
        assert campaign_main(
            ["run", "_toy", "--dry-run", "--store", str(store)]
        ) == 0
        capsys.readouterr()
        assert not store.exists()

    def test_csv_with_no_store_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            campaign_main(
                ["run", "_toy", "--no-store", "--csv", str(tmp_path / "o.csv")]
            )

    def test_keywords_mix_with_scenario_names(self, tmp_path, capsys):
        code = campaign_main(
            ["run", "figures", "_toy", "--dry-run", "--store", str(tmp_path / "s")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "figure3" in out and "_toy" in out

    def test_duplicate_set_axis_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            campaign_main(
                ["run", "_toy", "--set", "x=1", "--set", "x=2",
                 "--store", str(tmp_path / "s")]
            )

    def test_main_dispatches_campaign(self, capsys):
        assert main(["campaign", "list"]) == 0
        assert "registered scenarios" in capsys.readouterr().out
