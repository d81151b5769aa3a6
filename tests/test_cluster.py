"""Cluster-trace replay: trace model, FIFO scheduler, interference report.

Covers the multi-tenant subsystem end to end: trace generation and SWF
parsing are pure functions of their inputs; the scheduler never
double-allocates nodes, queues when the machine is full, re-admits at the
completion cycle, and replays deterministically; slowdown/stretch come
from memoized isolated baselines; per-job rows fold into the
interference matrix; `cluster.job` spans and job-count gauges land in
telemetry snapshots; a dense flow-backend replay is pinned bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.analysis.interference import (
    format_interference,
    interference_matrix,
    interference_sums,
    matrix_from_sums,
    merge_sums,
    store_interference_report,
)
from repro.cluster import (
    ClusterReplayError,
    ClusterScheduler,
    JobTrace,
    TraceError,
    TraceJob,
    WORKLOAD_NAMES,
    jain_fairness,
)
from repro.config import SimulationConfig, TopologyConfig
from repro.model.base import build_network_model
from repro.telemetry import TELEMETRY, disable, enable, snapshot_of


@pytest.fixture(autouse=True)
def _telemetry_off():
    disable()
    yield
    disable()


def _tiny_flow_config(seed: int = 5) -> SimulationConfig:
    """A 24-node flow-backend machine — small enough to force queueing."""
    return SimulationConfig(
        topology=TopologyConfig(
            num_groups=3,
            chassis_per_group=2,
            blades_per_chassis=2,
            nodes_per_router=2,
        ),
        seed=seed,
        backend="flow",
    )


class TestTraceJob:
    def test_name_is_stable(self):
        job = TraceJob(job_id=3, submit_time=0, num_nodes=2, workload="pingpong")
        assert job.name == "j0003-pingpong"

    def test_rejects_single_node(self):
        with pytest.raises(TraceError):
            TraceJob(job_id=0, submit_time=0, num_nodes=1, workload="barrier")

    def test_rejects_unknown_workload(self):
        with pytest.raises(TraceError):
            TraceJob(job_id=0, submit_time=0, num_nodes=2, workload="spark")

    def test_rejects_negative_submit(self):
        with pytest.raises(TraceError):
            TraceJob(job_id=0, submit_time=-1, num_nodes=2, workload="barrier")

    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_builds_every_workload(self, workload):
        job = TraceJob(
            job_id=0, submit_time=0, num_nodes=4, workload=workload,
            iterations=2, size_bytes=2048,
        )
        bench = job.build_workload()
        assert bench.iterations == 2
        assert bench.warmup == 0


class TestJobTrace:
    def test_synthetic_is_deterministic(self):
        a = JobTrace.synthetic(11, 40)
        b = JobTrace.synthetic(11, 40)
        assert a.jobs == b.jobs
        assert a.jobs != JobTrace.synthetic(12, 40).jobs

    def test_synthetic_respects_bounds(self):
        trace = JobTrace.synthetic(3, 50, min_nodes=4, max_nodes=16)
        assert all(4 <= j.num_nodes <= 16 for j in trace)
        submits = [j.submit_time for j in trace]
        assert submits == sorted(submits)

    def test_synthetic_rejects_bad_load(self):
        with pytest.raises(TraceError):
            JobTrace.synthetic(0, 5, load="crushing")

    def test_duplicate_ids_rejected(self):
        job = TraceJob(job_id=0, submit_time=0, num_nodes=2, workload="barrier")
        with pytest.raises(TraceError):
            JobTrace(name="dup", jobs=(job, job))

    def test_validate_rejects_oversized_job(self):
        trace = JobTrace.synthetic(0, 5, min_nodes=8, max_nodes=8)
        with pytest.raises(TraceError):
            trace.validate(4)

    def test_describe_mentions_mix(self):
        trace = JobTrace.synthetic(1, 10)
        text = trace.describe()
        assert "10 job(s)" in text

    def test_swf_parsing(self):
        text = """
        ; SWF header comment
        1 0 0 10 4 -1 -1 4 -1 -1 1
        2 5 0 4000 2 -1 -1 2 -1 -1 1
        3 -1 0 10 4
        """
        trace = JobTrace.from_swf(text, cycles_per_second=1000, max_nodes=8)
        assert len(trace) == 2  # sentinel (-1 submit) row skipped
        first, second = trace.jobs
        assert first.submit_time == 0 and first.num_nodes == 4
        assert second.submit_time == 5000
        assert second.iterations == 2  # >= 1h run time
        # Workloads derive from job ids — no RNG, so re-parses agree.
        assert trace.jobs == JobTrace.from_swf(text, max_nodes=8).jobs

    def test_swf_clamps_node_counts(self):
        trace = JobTrace.from_swf("7 0 0 10 500", max_nodes=16)
        assert trace.jobs[0].num_nodes == 16

    def test_swf_rejects_garbage(self):
        with pytest.raises(TraceError):
            JobTrace.from_swf("1 2 3")
        with pytest.raises(TraceError):
            JobTrace.from_swf("; only comments\n")
        with pytest.raises(TraceError):
            JobTrace.from_swf("x y z w v")


class TestClusterScheduler:
    def _replay(self, *, baseline=False, seed=5, jobs=10, config=None):
        config = config or _tiny_flow_config(seed)
        network = build_network_model(config)
        trace = JobTrace.synthetic(seed, jobs, load="heavy", max_nodes=8)
        factory = (lambda: build_network_model(config)) if baseline else None
        scheduler = ClusterScheduler(network, trace, baseline_factory=factory)
        return scheduler, scheduler.replay()

    def test_all_jobs_complete(self):
        scheduler, result = self._replay()
        assert len(result.records) == 10
        for record in result.records:
            assert record.submit_time is not None
            assert record.start_time is not None
            assert record.finish_time is not None
            assert record.finish_time > record.start_time
            assert len(record.nodes) == record.job.num_nodes
        assert scheduler.occupied_nodes == ()
        assert scheduler.jobs_running == 0 and scheduler.jobs_queued == 0

    def test_replay_is_deterministic(self):
        _, first = self._replay(baseline=True)
        _, second = self._replay(baseline=True)
        assert first.job_rows() == second.job_rows()
        assert first.metrics() == second.metrics()

    def test_queueing_happens_on_a_full_machine(self):
        # Four 12-node jobs burst-arrive on a 24-node machine: at most two
        # run concurrently, so at least one must wait for a completion.
        config = _tiny_flow_config()
        network = build_network_model(config)
        trace = JobTrace(
            name="burst",
            jobs=tuple(
                TraceJob(
                    job_id=i, submit_time=0, num_nodes=12,
                    workload="allreduce", size_bytes=4096,
                )
                for i in range(4)
            ),
        )
        result = ClusterScheduler(network, trace).replay()
        waits = [r.wait_time for r in result.records]
        assert any(w > 0 for w in waits)
        assert all(w >= 0 for w in waits)
        # FIFO: a later job never starts before an earlier one.
        starts = [r.start_time for r in sorted(result.records, key=lambda r: r.job.job_id)]
        assert starts == sorted(starts)

    def test_concurrent_jobs_never_share_nodes(self):
        _, result = self._replay(jobs=16)
        spans = [
            (r.start_time, r.finish_time, set(r.nodes)) for r in result.records
        ]
        for i, (s1, f1, n1) in enumerate(spans):
            for s2, f2, n2 in spans[i + 1 :]:
                if s1 < f2 and s2 < f1:  # lifetimes overlap
                    assert not n1 & n2

    def test_baseline_slowdowns(self):
        _, result = self._replay(baseline=True)
        metrics = result.metrics()
        assert metrics["jobs"] == 10.0
        for key in ("mean_slowdown", "p95_slowdown", "max_slowdown",
                    "fairness", "mean_stretch"):
            assert key in metrics
        assert 0.0 < metrics["fairness"] <= 1.0
        for record in result.records:
            assert record.isolated_cycles is not None
            assert record.slowdown is not None
            assert record.stretch >= record.slowdown

    def test_metrics_without_baseline(self):
        _, result = self._replay(baseline=False)
        metrics = result.metrics()
        assert "mean_slowdown" not in metrics
        assert metrics["makespan"] > 0

    def test_slowdown_table_lists_every_job(self):
        _, result = self._replay(baseline=True)
        table = result.slowdown_table()
        for record in result.records:
            assert record.job.workload in table
        assert "slowdown" in table

    def test_replays_exactly_once(self):
        scheduler, _ = self._replay()
        with pytest.raises(ClusterReplayError):
            scheduler.replay()

    def test_trace_must_fit_machine(self):
        config = _tiny_flow_config()
        network = build_network_model(config)
        trace = JobTrace.synthetic(0, 3, min_nodes=32, max_nodes=32)
        with pytest.raises(TraceError):
            ClusterScheduler(network, trace)

    def test_event_budget_enforced(self):
        config = _tiny_flow_config()
        network = build_network_model(config)
        trace = JobTrace.synthetic(5, 10, load="heavy", max_nodes=8)
        scheduler = ClusterScheduler(network, trace, max_events=10)
        with pytest.raises(ClusterReplayError):
            scheduler.replay()

    def test_flit_backend_also_replays(self):
        # The scheduler is backend-agnostic: same contract on flit.
        config = SimulationConfig.tiny(seed=11)
        network = build_network_model(config)
        trace = JobTrace.synthetic(7, 4, load="heavy", max_nodes=4)
        _ = ClusterScheduler(network, trace).replay()

    def test_telemetry_spans_and_gauges(self):
        enable()
        try:
            self._replay(jobs=6)
            snapshot = snapshot_of(TELEMETRY.tracer, TELEMETRY.metrics)
        finally:
            disable()
        spans = snapshot["spans"]
        assert spans["cluster.job"]["count"] == 6
        assert "cluster.replay" in spans
        assert snapshot["counters"]["cluster.jobs_submitted"] == 6
        assert snapshot["counters"]["cluster.jobs_completed"] == 6
        assert snapshot["gauges"]["cluster.jobs_running"] == 0
        job_events = [
            e for e in snapshot["events"] if e["name"] == "cluster.job"
        ]
        assert all(e["cat"] == "cluster" for e in job_events)
        assert all("wait" in e["args"] for e in job_events)


class TestFlowReplayPin:
    """Golden pin of a dense heavy replay on the flow backend.

    The flit backend's behaviour is pinned by sha256 digests; this is the
    flow backend's counterpart.  Twelve heavy jobs arrive ten times denser
    than the synthetic trace draws them on a 176-node machine, so flows
    of many jobs share links and the fair-share engine re-solves
    thousands of times.  Any change to the engine's float trajectory,
    its component walk or its fill split moves the per-job rows or the
    solve counters.
    """

    DIGEST = "fee58ef70e8645ff5fc8d64c13a679c6dc05d162bf2bb3d9fa96c9e67cdb3f35"
    SOLVER_STATS = {
        "solves": 3506,
        "full": 801,
        "incremental": 1167,
        "skipped": 1538,
        "rounds": 2575,
        "flows_touched": 5526,
        "aborts": 801,
    }

    def test_dense_heavy_replay(self):
        config = SimulationConfig(
            topology=TopologyConfig(
                num_groups=11,
                chassis_per_group=2,
                blades_per_chassis=4,
                nodes_per_router=2,
            ),
            seed=7,
            backend="flow",
        )
        trace = JobTrace.synthetic(7, 12, load="heavy", max_nodes=32)
        dense = JobTrace(
            name=trace.name + "-dense",
            jobs=tuple(
                dataclasses.replace(job, submit_time=job.submit_time // 10)
                for job in trace.jobs
            ),
        )
        network = build_network_model(config)
        result = ClusterScheduler(network, dense).replay()
        rows = json.dumps(result.job_rows(), sort_keys=True, separators=(",", ":"))
        assert network.solver_stats == self.SOLVER_STATS
        assert hashlib.sha256(rows.encode()).hexdigest() == self.DIGEST


class TestJainFairness:
    def test_equal_values_are_fair(self):
        assert jain_fairness([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_unequal_values_drop_below_one(self):
        index = jain_fairness([1.0, 1.0, 10.0])
        assert 1.0 / 3.0 < index < 1.0

    def test_empty_is_none(self):
        assert jain_fairness([]) is None
        assert jain_fairness([None, None]) is None


def _row(job_id, workload, start, finish, slowdown):
    return {
        "job_id": job_id,
        "workload": workload,
        "start": start,
        "finish": finish,
        "slowdown": slowdown,
    }


class TestInterferenceMatrix:
    def test_full_overlap_weights_one(self):
        rows = [
            _row(0, "pingpong", 0, 100, 1.5),
            _row(1, "alltoall", 0, 100, 1.2),
        ]
        matrix = interference_matrix(rows)
        # Each is fully overlapped by the other, and by nothing of its own kind.
        assert matrix["pingpong"]["alltoall"] == pytest.approx(1.5)
        assert matrix["alltoall"]["pingpong"] == pytest.approx(1.2)
        assert "pingpong" not in matrix.get("pingpong", {})

    def test_partial_overlap_weights_fraction(self):
        rows = [
            _row(0, "pingpong", 0, 100, 2.0),
            _row(1, "barrier", 50, 200, 1.0),
        ]
        sums = interference_sums(rows)
        num, den = sums[("pingpong", "barrier")]
        assert den == pytest.approx(0.5)  # half the victim's runtime
        assert num == pytest.approx(1.0)
        assert matrix_from_sums(sums)["pingpong"]["barrier"] == pytest.approx(2.0)

    def test_self_interference_excludes_own_interval(self):
        rows = [
            _row(0, "barrier", 0, 100, 1.1),
            _row(1, "barrier", 0, 100, 1.3),
        ]
        matrix = interference_matrix(rows)
        # Each barrier job's aggressor set is the *other* barrier job.
        assert matrix["barrier"]["barrier"] == pytest.approx(1.2)

    def test_disjoint_jobs_produce_empty_matrix(self):
        rows = [
            _row(0, "pingpong", 0, 100, 1.0),
            _row(1, "alltoall", 200, 300, 1.0),
        ]
        assert interference_matrix(rows) == {}

    def test_rows_without_slowdown_are_skipped(self):
        rows = [
            _row(0, "pingpong", 0, 100, None),
            _row(1, "alltoall", 0, 100, 1.2),
        ]
        matrix = interference_matrix(rows)
        assert "pingpong" not in matrix
        assert matrix["alltoall"]["pingpong"] == pytest.approx(1.2)

    def test_merge_pools_across_replays(self):
        rows = [
            _row(0, "pingpong", 0, 100, 1.0),
            _row(1, "barrier", 0, 100, 1.0),
        ]
        pooled = merge_sums(interference_sums(rows), interference_sums(rows))
        assert pooled[("pingpong", "barrier")][1] == pytest.approx(2.0)

    def test_format_renders_missing_cells_as_dash(self):
        text = format_interference({"pingpong": {"barrier": 1.25}})
        assert "1.250" in text
        assert "-" in text
        assert "victim" in text

    def test_format_empty(self):
        assert "no overlapping jobs" in format_interference({})


class TestClusterScenario:
    """The campaign face of the subsystem: registration and planning."""

    def test_registered_with_tags_and_grid(self):
        from repro.campaign import ensure_builtin_scenarios, get_scenario

        ensure_builtin_scenarios()
        scen = get_scenario("cluster-trace")
        assert "flow-only" in scen.tags
        assert "cluster" in scen.tags
        # jobs(1) x policy(3) x mode(2) x load(2)
        assert scen.grid_size() == 12

    def test_flow_only_expands_pinned_to_flow(self):
        from repro.campaign import (
            ensure_builtin_scenarios,
            expand_scenario,
            get_scenario,
        )

        ensure_builtin_scenarios()
        specs = expand_scenario(get_scenario("cluster-trace"))
        assert len(specs) == 12
        assert all(spec.backend == "flow" for spec in specs)
        # Distinct cells hash apart; identical expansion hashes stably.
        hashes = [spec.spec_hash() for spec in specs]
        assert len(set(hashes)) == len(hashes)
        again = expand_scenario(get_scenario("cluster-trace"))
        assert hashes == [spec.spec_hash() for spec in again]

    def test_cost_hints_scale_with_load(self):
        from repro.campaign import ensure_builtin_scenarios, get_scenario
        from repro.experiments.harness import ExperimentScale

        ensure_builtin_scenarios()
        scen = get_scenario("cluster-trace")
        smoke = ExperimentScale.smoke()
        light = scen.cost_hints(
            smoke, jobs=200, policy="scattered", mode="ADAPTIVE_3", load="light"
        )
        heavy = scen.cost_hints(
            smoke, jobs=200, policy="scattered", mode="ADAPTIVE_3", load="heavy"
        )
        assert light["nodes"] == heavy["nodes"] == 1056
        assert heavy["concurrent_flows"] > light["concurrent_flows"]


class TestStoreInterferenceReport:
    def test_empty_store_returns_none(self, tmp_path):
        from repro.campaign.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        assert store_interference_report(store) is None

    def test_pools_cells_by_routing_mode(self, tmp_path):
        import json

        class FakeStore:
            root = tmp_path

            def index(self):
                return {
                    "h1": {
                        "scenario": "cluster-trace",
                        "params": {"mode": "ADAPTIVE_3"},
                        "result": "r1.json",
                    },
                    "h2": {
                        "scenario": "cluster-trace",
                        "params": {"mode": "MIN_HASH"},
                        "result": "r2.json",
                    },
                    "h3": {"scenario": "other", "result": "r1.json"},
                }

        rows = [
            _row(0, "pingpong", 0, 100, 1.4),
            _row(1, "barrier", 0, 100, 1.1),
        ]
        payload = {"data": {"jobs": rows}}
        (tmp_path / "r1.json").write_text(json.dumps(payload))
        (tmp_path / "r2.json").write_text(json.dumps(payload))
        report = store_interference_report(FakeStore())
        assert "ADAPTIVE_3" in report
        assert "MIN_HASH" in report
        assert "1.400" in report
