"""Distributed campaign execution: protocol, leases, coordinator, resume.

The end-to-end tests run real worker processes.  ``local`` workers are
forked from this process and see every scenario it registered; spawned
ones (the TCP transport, and ``local`` where fork is unavailable) are fresh
interpreters, so scenarios they execute must be importable: cheap test
scenarios live in a generated module on ``sys.path`` handed to workers via
``--preload``.  The crash tests SIGKILL actual worker processes mid-cell.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading

import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignPlan,
    Coordinator,
    DistOptions,
    RunSpec,
    ensure_builtin_scenarios,
    execute_plan,
    plan_campaign,
    run_cell,
    run_distributed,
)
from repro.campaign.dist.protocol import (
    Channel,
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
)
from repro.campaign.registry import Scenario, ScenarioError, register
from repro.experiments.cli import _parse_bind, campaign_main
from repro.sim.rng import RandomStreams
from repro.telemetry import disable, disable_probes, enable, enable_probes

# -- the worker-visible scenario module ---------------------------------------------

#: Source of the scenario module preloaded into worker subprocesses.  The
#: runner derives its payload from the run seed (determinism assertions)
#: and sleeps so leases overlap with the crash window.
_SLEEPY_MODULE = "dist_sleepy_scenarios"
_SLEEPY_SOURCE = '''
"""Test scenarios for the distributed executor (worker-importable)."""
import time

from repro.campaign.registry import Scenario, ScenarioError, register
from repro.sim.rng import RandomStreams


def _sleepy_runner(scale, *, i=0, sleep_s=0.0):
    if sleep_s:
        time.sleep(float(sleep_s))
    streams = RandomStreams(scale.seed)
    values = [streams.randint("sleepy", 0, 10_000) for _ in range(4)]
    return {
        "metrics": {"total": float(sum(values)), "i": float(i)},
        "data": {"values": values},
        "report": f"sleepy i={i} total={sum(values)}",
    }


try:
    register(
        Scenario(
            name="_dist-sleepy",
            description="deterministic sleeper for distributed-executor tests",
            axes={"i": tuple(range(6)), "sleep_s": (0.0,)},
            runner=_sleepy_runner,
        )
    )
except ScenarioError:
    pass  # already registered in this process
'''


def _sleepy_runner(scale, *, i=0, sleep_s=0.0):
    """In-process twin of the preloaded module's runner (same semantics)."""
    import time

    if sleep_s:
        time.sleep(float(sleep_s))
    streams = RandomStreams(scale.seed)
    values = [streams.randint("sleepy", 0, 10_000) for _ in range(4)]
    return {
        "metrics": {"total": float(sum(values)), "i": float(i)},
        "data": {"values": values},
        "report": f"sleepy i={i} total={sum(values)}",
    }


@pytest.fixture(scope="module", autouse=True)
def _registered():
    ensure_builtin_scenarios()
    try:
        register(
            Scenario(
                name="_dist-sleepy",
                description="deterministic sleeper for distributed-executor tests",
                axes={"i": tuple(range(6)), "sleep_s": (0.0,)},
                runner=_sleepy_runner,
            )
        )
    except ScenarioError:
        pass  # already registered by a previous module run in this process
    yield


@pytest.fixture(scope="module")
def sleepy_env(tmp_path_factory):
    """Writes the worker-importable scenario module; returns worker env.

    The PYTHONPATH carries the repro package root too: worker subprocesses
    must import repro even when this test process got it from pytest's
    ``pythonpath`` config rather than an installed package or the
    environment.
    """
    import pathlib

    import repro

    root = tmp_path_factory.mktemp("dist-scenarios")
    (root / f"{_SLEEPY_MODULE}.py").write_text(_SLEEPY_SOURCE, encoding="utf-8")
    repro_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    python_path = os.pathsep.join(
        [str(root), repro_root]
        + [p for p in (os.environ.get("PYTHONPATH"),) if p]
    )
    yield {"PYTHONPATH": python_path}


def _sleepy_plan(cells=6, sleep_s=0.0, seed=2019):
    specs = tuple(
        RunSpec.make("_dist-sleepy", {"i": i, "sleep_s": sleep_s}, seed=seed)
        for i in range(cells)
    )
    return CampaignPlan(name="dist-sleepy", specs=specs, seed=seed)


def _options(workers=2, transport="local", **kwargs):
    kwargs.setdefault("heartbeat_s", 0.2)
    kwargs.setdefault("lease_timeout_s", 2.0)
    kwargs.setdefault("preload", _SLEEPY_MODULE)
    return DistOptions(workers=workers, transport=transport, **kwargs)


@contextlib.contextmanager
def _traced_and_probed():
    """Tracing and probes on in this (the coordinator's) process."""
    enable()
    enable_probes()
    try:
        yield
    finally:
        disable()
        disable_probes()


def _plain_store(plan, root):
    """The plan run serially with tracing and probes off: the reference."""
    store = ArtifactStore(root)
    assert execute_plan(plan, store=store, workers=1).failed == 0
    return store


def _assert_traced_and_probed(root, plan, plain):
    """Every cell stored telemetry and a probe sidecar, payload untouched."""
    store = ArtifactStore(root)
    index = store.index()
    for spec in plan:
        assert "telemetry" in index[spec.spec_hash()], spec.label()
        assert store.has_probes(spec), spec.label()
        assert (
            store.result_path(spec).read_bytes()
            == plain.result_path(spec).read_bytes()
        ), f"instrumentation changed the payload of {spec.label()}"


def _serve_with_external_worker(coordinator, env):
    """Run a listen-only coordinator against one CLI-started worker.

    Returns the campaign result and the worker's exit status.
    """
    host, port = coordinator.address
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", "campaign", "worker",
         "--connect", f"{host}:{port}", "--preload", _SLEEPY_MODULE, "--quiet"],
        env=env,
        stdout=subprocess.DEVNULL,
    )
    # Listen-only coordinators wait for external workers indefinitely by
    # design, so run() goes in a thread and a wedge fails instead of
    # hanging the suite.
    outcome = {}
    runner = threading.Thread(target=lambda: outcome.update(result=coordinator.run()))
    runner.start()
    try:
        runner.join(timeout=90)
        assert not runner.is_alive(), (
            f"coordinator never finished (worker rc: {worker.poll()})"
        )
    finally:
        try:
            worker.wait(timeout=30)  # exits on the coordinator's shutdown
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait(timeout=10)
    return outcome["result"], worker.returncode


# -- protocol -----------------------------------------------------------------------

class _Loopback:
    """Two channels joined by a socketpair."""

    def __init__(self):
        left, right = socket.socketpair()
        self.left = Channel(left, name="left")
        self.right = Channel(right, name="right")

    def close(self):
        self.left.close()
        self.right.close()


def _channel_reading(data):
    """A channel whose peer sent ``data`` (small enough to buffer) and closed."""
    ours, theirs = socket.socketpair()
    theirs.sendall(data)
    theirs.close()
    return Channel(ours)


class TestProtocol:
    def test_roundtrip_messages(self):
        loop = _Loopback()
        try:
            sent = {"type": "lease", "spec": {"scenario": "x"}, "trace": False,
                    "probes": False}
            loop.left.send(sent)
            loop.left.send({"type": "heartbeat"})
            assert loop.right.recv() == sent
            assert loop.right.recv()["type"] == "heartbeat"
        finally:
            loop.close()

    def test_clean_eof_returns_none(self):
        loop = _Loopback()
        loop.left.close()
        assert loop.right.recv() is None
        loop.close()

    def test_torn_frame_raises(self):
        frame = encode_frame({"type": "result"})
        channel = _channel_reading(frame[: len(frame) - 2])
        with pytest.raises(ProtocolError, match="mid-frame"):
            channel.recv()
        channel.close()

    def test_oversized_length_rejected(self):
        bogus = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        channel = _channel_reading(bogus)
        with pytest.raises(ProtocolError, match="exceeds"):
            channel.recv()
        channel.close()

    def test_message_without_type_rejected(self):
        channel = _channel_reading(encode_frame({"spec": {}}))
        with pytest.raises(ProtocolError, match="without a type"):
            channel.recv()
        channel.close()

    def test_read_frames_returns_the_frames_one_read_completed(self):
        """The coordinator's read: whole frames only; a split one waits."""
        hello = encode_frame({"type": "hello"})
        beat = encode_frame({"type": "heartbeat"})
        ours, theirs = socket.socketpair()
        channel = Channel(ours)
        try:
            theirs.sendall(hello + beat[:3])
            assert channel.read_frames() == [{"type": "hello"}]
            theirs.sendall(beat[3:] + hello)
            assert channel.read_frames() == [{"type": "heartbeat"}, {"type": "hello"}]
            theirs.close()
            assert channel.read_frames() is None
        finally:
            channel.close()

    def test_spec_wire_roundtrip(self):
        spec = RunSpec.make(
            "_dist-sleepy", {"i": 2, "sleep_s": 0.5}, scale="paper", seed=7
        )
        routed = RunSpec(
            scenario="_dist-sleepy", params=(("i", 1),), backend="flit",
            routed_from="audit",
        )
        for original in (spec, routed):
            wired = json.loads(json.dumps(original.to_wire()))
            rebuilt = RunSpec.from_wire(wired)
            assert rebuilt == original
            assert rebuilt.spec_hash() == original.spec_hash()

    def test_wire_rejects_non_scalar_params(self):
        with pytest.raises(TypeError, match="JSON scalar"):
            RunSpec.from_wire(
                {"scenario": "x", "params": {"a": [1]}, "scale": "smoke",
                 "seed": 1, "backend": "flit"}
            )


# -- result streaming ---------------------------------------------------------------

class TestResultStreaming:
    def test_each_cell_streams_as_one_result_frame(self):
        """Each one-cell lease is answered by exactly one result frame."""
        from repro.campaign.dist.worker import serve_channel

        loop = _Loopback()
        specs = [
            RunSpec.make("_dist-sleepy", {"i": i, "sleep_s": 0.0}) for i in range(3)
        ]
        # A 30 s heartbeat keeps liveness pings out of the frame sequence
        # the test asserts on.
        server = threading.Thread(
            target=serve_channel,
            args=(loop.right,),
            kwargs={"name": "streamer", "heartbeat_s": 30.0},
            daemon=True,
        )
        server.start()
        frames = []
        try:
            assert loop.left.recv()["type"] == "hello"
            for spec in specs:
                loop.left.send(
                    {"type": "lease", "spec": spec.to_wire(), "trace": False,
                     "probes": False}
                )
                frames.append(loop.left.recv())
            loop.left.send({"type": "shutdown"})
            # Nothing else was sent: the next read is the worker's close.
            assert loop.left.recv() is None
        finally:
            server.join(timeout=10)
            loop.close()
        assert [f["type"] for f in frames] == ["result"] * 3
        assert [RunSpec.from_wire(f["spec"]) for f in frames] == specs
        assert all(f["error"] == "" and "payload" in f for f in frames)


# -- instrumentation switches on leases ---------------------------------------------

class TestLeaseSwitches:
    def test_worker_applies_each_leases_switches(self, monkeypatch):
        """A lease turns the worker's tracing and probes on, and off again."""
        from repro.campaign.dist.worker import serve_channel

        # The switch writes the environment; monkeypatch restores it.
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        monkeypatch.setenv("REPRO_PROBES", "0")
        loop = _Loopback()
        spec = RunSpec.make("_dist-sleepy", {"i": 0, "sleep_s": 0.0})
        server = threading.Thread(
            target=serve_channel,
            args=(loop.right,),
            kwargs={"name": "switched", "heartbeat_s": 30.0},
            daemon=True,
        )
        server.start()
        results = []
        try:
            assert loop.left.recv()["type"] == "hello"
            for switch in (True, False):
                loop.left.send(
                    {"type": "lease", "spec": spec.to_wire(), "trace": switch,
                     "probes": switch}
                )
                results.append(loop.left.recv())
            loop.left.send({"type": "shutdown"})
        finally:
            server.join(timeout=10)
            loop.close()
            disable()
            disable_probes()
        on, off = results
        assert "telemetry" in on and "probes" in on
        assert "telemetry" not in off and "probes" not in off


# -- options ------------------------------------------------------------------------

class TestDistOptions:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            DistOptions(transport="carrier-pigeon")

    def test_local_transport_needs_a_worker(self):
        with pytest.raises(ValueError, match="workers"):
            DistOptions(workers=0, transport="local")

    def test_socket_transport_allows_zero_workers(self):
        assert DistOptions(workers=0, transport="socket").workers == 0

    def test_lease_timeout_must_exceed_heartbeats(self):
        with pytest.raises(ValueError, match="heartbeat"):
            DistOptions(lease_timeout_s=1.0, heartbeat_s=0.6)


# -- end-to-end: local (forked) transport -------------------------------------------

def _local_only_runner(scale, *, i=0):
    return {"metrics": {"i": float(i), "seed": float(scale.seed % 1000)}}


def _worker_killing_runner(scale, *, i=0):
    """Cell 0 kills the worker process running it; the rest are sleepers."""
    if i == 0:
        os._exit(1)
    return _sleepy_runner(scale, i=i)


def _local_options(workers=2, **kwargs):
    """Local-transport options without ``preload`` or ``extra_env``."""
    return DistOptions(
        workers=workers, transport="local", heartbeat_s=0.2, lease_timeout_s=2.0,
        **kwargs,
    )


class TestLocalTransport:
    def test_scenario_registered_only_here_runs_without_preload(self, tmp_path):
        """Forked workers hold this process's registry; a fresh interpreter
        would fail every cell with ``unknown scenario``."""
        try:
            register(
                Scenario(
                    name="_dist-local-only",
                    description="registered in the test process only",
                    axes={"i": tuple(range(4))},
                    runner=_local_only_runner,
                )
            )
        except ScenarioError:
            pass  # already registered by an earlier run in this process
        plan = plan_campaign(["_dist-local-only"])
        result = run_distributed(
            plan, store=ArtifactStore(tmp_path / "s"), options=_local_options()
        )
        assert result.failed == 0, [r.error for r in result.records if r.error]
        assert result.executed == 4

    def test_cell_that_kills_its_worker_fails_alone(self, tmp_path, monkeypatch):
        """Every lease of cell 0 kills its worker; after max_leases deaths
        cell 0 fails, and no other cell is abandoned with it.  Every fork,
        the replacements' too, copies a process running no extra thread."""
        try:
            register(
                Scenario(
                    name="_dist-killer",
                    description="cell 0 exits its worker process",
                    axes={"i": tuple(range(12))},
                    runner=_worker_killing_runner,
                )
            )
        except ScenarioError:
            pass  # already registered by an earlier run in this process
        plan = plan_campaign(["_dist-killer"])
        store = ArtifactStore(tmp_path / "dist")
        threads_at_fork = []
        fork = os.fork

        def counting_fork():
            threads_at_fork.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        threads_before = threading.active_count()
        result = run_distributed(plan, store=store, options=_local_options())
        failed = {r.spec.params_dict["i"] for r in result.records if not r.ok}
        assert failed == {0}, [r.error for r in result.records if r.error]
        assert result.executed == 11
        assert len(threads_at_fork) > 2, "no replacement worker was forked"
        assert threads_at_fork == [threads_before] * len(threads_at_fork)
        survivors = CampaignPlan(name="survivors", specs=plan.specs[1:])
        serial_store = _plain_store(survivors, tmp_path / "serial")
        for spec in survivors:
            assert (
                store.result_path(spec).read_bytes()
                == serial_store.result_path(spec).read_bytes()
            ), f"artifact for {spec.label()} differs distributed vs serial"

    def test_forks_start_with_the_flow_backend_imported(self, tmp_path, sleepy_env):
        """Every fork of a flow plan already holds numpy and the flow
        engine, so no worker's first cell pays for importing them.  Runs in
        a fresh interpreter: this one imported both long ago."""
        script = (
            "import json, os, sys\n"
            "from repro.campaign import (ArtifactStore, DistOptions,\n"
            "    ensure_builtin_scenarios, plan_campaign, run_distributed)\n"
            "MODULES = ('numpy', 'repro.model.flow.vectorized')\n"
            "seen = []\n"
            "fork = os.fork\n"
            "def spying_fork():\n"
            "    seen.append([name in sys.modules for name in MODULES])\n"
            "    return fork()\n"
            "os.fork = spying_fork\n"
            "ensure_builtin_scenarios()\n"
            "plan = plan_campaign(['pingpong-placement'], backend='flow', overrides={\n"
            "    'placement': ['inter-groups'], 'message_kib': [4]})\n"
            "result = run_distributed(plan, store=ArtifactStore(sys.argv[1]),\n"
            "                         options=DistOptions(workers=2))\n"
            "print(json.dumps({'seen': seen, 'executed': result.executed,\n"
            "                  'failed': result.failed}))\n"
        )
        env = dict(os.environ, PYTHONPATH=sleepy_env["PYTHONPATH"])
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outcome = json.loads(done.stdout.strip().splitlines()[-1])
        assert (outcome["executed"], outcome["failed"]) == (2, 0)
        assert outcome["seen"] == [[True, True]] * 2

    def test_coordinator_temporary_directory_survives_the_workers(self):
        """A forked worker exits without running this process's exit hooks,
        one of which would delete every live ``TemporaryDirectory``."""
        with tempfile.TemporaryDirectory() as tmp:
            store = ArtifactStore(os.path.join(tmp, "store"))
            result = run_distributed(
                _sleepy_plan(cells=4), store=store, options=_local_options()
            )
            assert result.failed == 0 and result.executed == 4
            assert os.path.isdir(tmp)
            assert len(ArtifactStore(os.path.join(tmp, "store"))) == 4

    def test_spawned_workers_where_fork_is_unavailable(
        self, tmp_path, sleepy_env, monkeypatch
    ):
        """Without os.fork, local spawns --connect workers on a loopback port
        (with preload and extra_env), and the store matches a serial run."""
        from repro.campaign.dist import coordinator as coordinator_module

        monkeypatch.setattr(coordinator_module, "_can_fork", lambda: False)
        plan = _sleepy_plan(cells=6)
        store = ArtifactStore(tmp_path / "spawned")
        coordinator = Coordinator(
            plan, store=store, options=_options(workers=2, extra_env=sleepy_env)
        )
        assert coordinator.address[0] == "127.0.0.1"
        result = coordinator.run()
        assert result.failed == 0, [r.error for r in result.records if r.error]
        assert result.executed == 6
        assert coordinator._spawned
        assert all(isinstance(p, subprocess.Popen) for p in coordinator._spawned)
        serial_store = _plain_store(plan, tmp_path / "serial")
        for spec in plan:
            assert (
                store.result_path(spec).read_bytes()
                == serial_store.result_path(spec).read_bytes()
            ), f"artifact for {spec.label()} differs spawned vs serial"

    def test_distributed_matches_single_process_store(self, tmp_path, sleepy_env):
        plan = _sleepy_plan(cells=6)
        dist_store = ArtifactStore(tmp_path / "dist")
        result = run_distributed(
            plan,
            store=dist_store,
            options=_options(workers=2, extra_env=sleepy_env),
        )
        assert result.failed == 0 and result.executed == 6
        assert [r.spec for r in result.records] == list(plan.specs)
        serial_store = ArtifactStore(tmp_path / "serial")
        serial = execute_plan(plan, store=serial_store, workers=1)
        assert serial.failed == 0
        for spec in plan:
            assert (
                dist_store.result_path(spec).read_bytes()
                == serial_store.result_path(spec).read_bytes()
            ), f"artifact for {spec.label()} differs distributed vs serial"
        # The journal was folded into an atomic index at shutdown.
        assert not dist_store.journal_path.exists()
        assert ArtifactStore(tmp_path / "dist").summary() == {"_dist-sleepy": 6}

    def test_resumes_from_partial_store(self, tmp_path, sleepy_env):
        plan = _sleepy_plan(cells=6)
        store = ArtifactStore(tmp_path / "store")
        partial = CampaignPlan(name="partial", specs=plan.specs[:3], seed=plan.seed)
        execute_plan(partial, store=store, workers=1)
        result = run_distributed(
            plan, store=store, options=_options(workers=2, extra_env=sleepy_env)
        )
        assert result.cached == 3 and result.executed == 3 and result.failed == 0

    def test_failing_cells_become_error_records(self, tmp_path, sleepy_env):
        # Unknown axis value: the runner raises inside the worker.
        bad = CampaignPlan(
            name="bad",
            specs=(
                RunSpec.make("pingpong-placement",
                             {"placement": "nope", "message_kib": 4, "noise": "none"}),
                RunSpec.make("_dist-sleepy", {"i": 0, "sleep_s": 0.0}),
            ),
        )
        result = run_distributed(
            bad, options=_options(workers=1, extra_env=sleepy_env)
        )
        assert result.failed == 1 and result.executed == 1
        assert "placement" in result.records[0].error

    def test_two_workers_trace_and_probe_every_cell(self, tmp_path, sleepy_env):
        plan = _sleepy_plan(cells=6)
        plain = _plain_store(plan, tmp_path / "plain")
        with _traced_and_probed():
            result = run_distributed(
                plan,
                store=ArtifactStore(tmp_path / "dist"),
                options=_options(workers=2, extra_env=sleepy_env),
            )
        assert result.failed == 0 and result.executed == 6
        _assert_traced_and_probed(tmp_path / "dist", plan, plain)


# -- end-to-end: socket transport + crash-resume ------------------------------------

class TestSocketTransport:
    def test_two_workers_complete_a_grid(self, tmp_path, sleepy_env):
        plan = _sleepy_plan(cells=6)
        store = ArtifactStore(tmp_path / "sock")
        result = run_distributed(
            plan,
            store=store,
            options=_options(workers=2, transport="socket", extra_env=sleepy_env),
        )
        assert result.failed == 0 and result.executed == 6
        assert len(ArtifactStore(tmp_path / "sock")) == 6

    def test_external_worker_via_cli_connect(self, tmp_path, sleepy_env):
        """A coordinator with workers=0 is served by a CLI-started worker."""
        plan = _sleepy_plan(cells=4)
        coordinator = Coordinator(
            plan,
            store=ArtifactStore(tmp_path / "ext"),
            options=_options(workers=0, transport="socket", extra_env=sleepy_env),
        )
        result, returncode = _serve_with_external_worker(
            coordinator, dict(os.environ, **sleepy_env)
        )
        assert result.failed == 0 and result.executed == 4
        assert result.workers == 1  # the worker that served it, not the 0 started
        assert returncode == 0

    def test_external_worker_traces_and_probes_under_the_coordinator(
        self, tmp_path, sleepy_env
    ):
        """The coordinator's switches reach a worker it did not start.

        The worker's environment holds no REPRO_* variable, so only the
        lease can tell it to trace and probe.
        """
        plan = _sleepy_plan(cells=4)
        plain = _plain_store(plan, tmp_path / "plain")
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(sleepy_env)
        with _traced_and_probed():
            coordinator = Coordinator(
                plan,
                store=ArtifactStore(tmp_path / "ext"),
                options=_options(workers=0, transport="socket", extra_env=sleepy_env),
            )
            result, returncode = _serve_with_external_worker(coordinator, env)
        assert result.failed == 0 and result.executed == 4
        assert returncode == 0
        _assert_traced_and_probed(tmp_path / "ext", plan, plain)

    def test_dead_worker_fleet_abandons_instead_of_wedging(self):
        """Workers that die at startup must fail the cells, not hang run().

        A bogus --preload makes every spawned worker exit immediately; once
        the respawn budget is spent the coordinator abandons the pending
        cells (listen-only --workers 0 mode is the only one that waits)."""
        plan = _sleepy_plan(cells=2)
        result = run_distributed(
            plan,
            options=_options(
                workers=1,
                transport="socket",
                preload="no_such_module_anywhere",
                max_leases=2,
            ),
        )
        assert result.failed == 2
        assert all("no workers left" in r.error for r in result.records)

    @pytest.mark.parametrize("transport", ["socket", "local"])
    def test_sigkilled_worker_is_re_leased_and_store_matches(
        self, tmp_path, sleepy_env, transport
    ):
        """Crash-resume acceptance: kill a worker mid-cell; the coordinator
        re-leases its cell and the final store is hash-for-hash identical
        to a single-process run."""
        plan = _sleepy_plan(cells=6, sleep_s=0.3)
        store = ArtifactStore(tmp_path / "crash")
        first_result = threading.Event()

        def progress(done, total, record):
            first_result.set()

        coordinator = Coordinator(
            plan,
            store=store,
            options=_options(workers=2, transport=transport, extra_env=sleepy_env),
            progress=progress,
        )
        outcome = {}
        runner = threading.Thread(target=lambda: outcome.update(result=coordinator.run()))
        runner.start()
        try:
            # Let both workers lease work, then SIGKILL one mid-cell.
            assert first_result.wait(timeout=60), "no result ever arrived"
            pids = coordinator.worker_pids
            assert pids, "no spawned workers to kill"
            os.kill(pids[0], signal.SIGKILL)
        finally:
            runner.join(timeout=120)
        assert not runner.is_alive(), "coordinator wedged after worker death"
        result = outcome["result"]
        assert result.failed == 0, [r.error for r in result.records if r.error]
        assert result.executed == 6

        serial_store = ArtifactStore(tmp_path / "serial")
        serial = execute_plan(plan, store=serial_store, workers=1)
        assert serial.failed == 0
        for spec in plan:
            assert (
                store.result_path(spec).read_bytes()
                == serial_store.result_path(spec).read_bytes()
            ), f"artifact for {spec.label()} differs after crash-resume"
        assert set(store.index()) == set(serial_store.index())


    def test_silent_worker_is_revoked_and_its_cell_re_leased(
        self, tmp_path, monkeypatch
    ):
        """A connected worker that takes a lease and goes silent is revoked
        on time, while a live worker keeps the coordinator busy, and its
        cell is re-leased to the live worker."""
        from repro.campaign.dist.worker import serve_socket

        # The live worker applies each lease's switches to this process,
        # writing the environment; monkeypatch restores it.
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        monkeypatch.setenv("REPRO_PROBES", "0")
        outstanding_at_revoke = []
        revoke = Coordinator._revoke

        def spying_revoke(self, handle, *args, **kwargs):
            if handle.name == "silent":
                outstanding_at_revoke.append(len(self._outstanding))
            return revoke(self, handle, *args, **kwargs)

        monkeypatch.setattr(Coordinator, "_revoke", spying_revoke)
        plan = _sleepy_plan(cells=30, sleep_s=0.1)
        coordinator = Coordinator(
            plan,
            store=ArtifactStore(tmp_path / "revoked"),
            options=_options(workers=0, transport="socket", lease_timeout_s=1.0),
        )
        outcome = {}
        # Daemon threads: a wedged coordinator fails the test, not the run.
        runner = threading.Thread(
            target=lambda: outcome.update(result=coordinator.run()), daemon=True
        )
        runner.start()
        silent = Channel(
            socket.create_connection(coordinator.address, timeout=30), name="silent"
        )
        live = None
        try:
            silent.send({"type": "hello", "worker": "silent", "pid": 0, "host": "x"})
            lease = silent.recv()
            assert lease["type"] == "lease"
            assert RunSpec.from_wire(lease["spec"]) == plan.specs[0]
            host, port = coordinator.address
            live = threading.Thread(
                target=serve_socket,
                args=(host, port),
                kwargs={"name": "live", "heartbeat_s": 0.2, "log": lambda text: None},
                daemon=True,
            )
            live.start()
            runner.join(timeout=30)
            assert not runner.is_alive(), "coordinator wedged revoking a silent lease"
        finally:
            silent.close()
            if live is not None:
                live.join(timeout=10)
            disable()
            disable_probes()
        assert not live.is_alive(), "the live worker never saw the shutdown"
        result = outcome["result"]
        assert result.failed == 0 and result.executed == 30
        assert coordinator._revocations == 1
        # Revoked about 1 s after the grant, 3 s before the live worker
        # could finish the other cells alone.
        assert len(outstanding_at_revoke) == 1
        assert outstanding_at_revoke[0] >= 10, outstanding_at_revoke

    @pytest.mark.parametrize(
        "bad_frame",
        [
            # No spec: merged, it would raise KeyError('spec') in run().
            lambda lease: {"type": "result", "elapsed_s": 0.1, "error": ""},
            # Neither payload nor error: merged, it would store a cell that
            # is neither executed, cached nor failed.
            lambda lease: {"type": "result", "spec": lease["spec"],
                           "elapsed_s": 0.1, "error": ""},
            # Frame types the coordinator does not accept.
            lambda lease: {"type": "result_batch", "results": []},
            lambda lease: {"type": "shard_done", "shard": 0},
        ],
        ids=["result-without-spec", "result-without-outcome", "unknown-type",
             "shard-done"],
    )
    def test_bad_frame_drops_the_worker_and_re_leases_its_cell(
        self, tmp_path, monkeypatch, bad_frame
    ):
        """A worker that breaks the protocol is dropped at once, its cell
        goes to a live worker, and the store matches a serial run."""
        from repro.campaign.dist.worker import serve_socket

        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        monkeypatch.setenv("REPRO_PROBES", "0")
        plan = _sleepy_plan(cells=4)
        store = ArtifactStore(tmp_path / "dropped")
        # Far above the join timeout: only the drop can free the cell.
        coordinator = Coordinator(
            plan,
            store=store,
            options=_options(workers=0, transport="socket", lease_timeout_s=120.0),
        )
        outcome = {}
        runner = threading.Thread(
            target=lambda: outcome.update(result=coordinator.run()), daemon=True
        )
        runner.start()
        rogue = Channel(
            socket.create_connection(coordinator.address, timeout=10), name="rogue"
        )
        live = None
        try:
            rogue.send({"type": "hello", "worker": "rogue", "pid": 0, "host": "x"})
            lease = rogue.recv()
            assert lease["type"] == "lease"
            rogue.send(bad_frame(lease))
            assert rogue.recv() is None, "the rogue worker was not dropped"
            host, port = coordinator.address
            live = threading.Thread(
                target=serve_socket,
                args=(host, port),
                kwargs={"name": "live", "heartbeat_s": 0.2, "log": lambda text: None},
                daemon=True,
            )
            live.start()
            runner.join(timeout=30)
            assert not runner.is_alive(), "coordinator never re-leased the cell"
        finally:
            rogue.close()
            if live is not None:
                live.join(timeout=10)
            disable()
            disable_probes()
        result = outcome["result"]
        assert result.failed == 0 and result.executed == 4
        assert coordinator._revocations == 1
        serial_store = _plain_store(plan, tmp_path / "serial")
        for spec in plan:
            assert (
                store.result_path(spec).read_bytes()
                == serial_store.result_path(spec).read_bytes()
            ), f"artifact for {spec.label()} differs after the drop"
        assert set(store.index()) == set(serial_store.index())


# -- coordinator unit behaviour -----------------------------------------------------

class TestLeaseBookkeeping:
    def test_abandoned_cell_becomes_a_failed_record(self):
        """A cell whose lease was revoked max_leases times fails alone."""
        from repro.campaign.dist.coordinator import _Lease

        plan = _sleepy_plan(cells=2)
        coordinator = Coordinator(plan, options=_options(max_leases=2))
        coordinator._outstanding = {spec.spec_hash() for spec in plan.specs}
        doomed, spared = plan.specs
        lease = _Lease(
            spec=doomed,
            spec_hash=doomed.spec_hash(),
            attempt=2,  # already at the limit
            last_seen=0.0,
        )
        coordinator._requeue(lease)
        assert not coordinator._pending
        assert coordinator._outstanding == {spared.spec_hash()}
        failed, untouched = coordinator._records
        assert "abandoned after 2 revoked lease(s)" in failed.error
        assert untouched is None

    def test_pending_cells_wait_for_a_started_worker_to_connect(self):
        """With the respawn budget spent and no worker connected, pending
        cells wait while a started worker still runs, then fail."""
        plan = _sleepy_plan(cells=1)
        coordinator = Coordinator(plan, options=_options(workers=1))
        spec = plan.specs[0]
        coordinator._outstanding = {spec.spec_hash()}
        coordinator._pending.append((spec, 0))
        coordinator._respawn_budget = 0

        class _StartedWorker:
            returncode = None

            def poll(self):
                return self.returncode

        started = _StartedWorker()
        coordinator._spawned.append(started)
        coordinator._check_starvation()
        assert coordinator._pending, "abandoned before the worker could connect"
        started.returncode = 1
        coordinator._check_starvation()
        assert not coordinator._pending
        assert "no workers left" in coordinator._records[0].error

    def test_duplicate_results_are_ignored(self, tmp_path):
        plan = _sleepy_plan(cells=1)
        store = ArtifactStore(tmp_path / "dup")
        coordinator = Coordinator(plan, store=store, options=_options())
        spec = plan.specs[0]
        coordinator._outstanding = {spec.spec_hash()}
        record = run_cell(spec)
        message = {
            "type": "result",
            "spec": spec.to_wire(),
            "payload": record.payload,
            "report": record.report,
            "elapsed_s": record.elapsed_s,
            "error": "",
        }

        class _FakeHandle:
            lease = None

        coordinator._merge_result(_FakeHandle(), message)
        before = store.result_path(spec).read_bytes()
        coordinator._merge_result(_FakeHandle(), message)  # duplicate: no-op
        assert store.result_path(spec).read_bytes() == before
        assert coordinator._records[0] is not None


# -- store: journal + streaming export ----------------------------------------------

class TestStoreJournal:
    def test_deferred_saves_replay_after_crash(self, tmp_path):
        """Results journaled but never flushed survive a coordinator crash."""
        store = ArtifactStore(tmp_path / "store")
        spec = RunSpec.make("_dist-sleepy", {"i": 0, "sleep_s": 0.0})
        store.save(spec, {"metrics": {"total": 1.0}}, elapsed=0.5, defer_index=True)
        assert store.journal_path.exists()
        # Simulate the crash: a brand-new store object, no flush ever ran.
        reopened = ArtifactStore(tmp_path / "store")
        assert reopened.has(spec)
        assert reopened.load(spec) == {"metrics": {"total": 1.0}}

    def test_flush_folds_journal_into_index(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        spec = RunSpec.make("_dist-sleepy", {"i": 1, "sleep_s": 0.0})
        store.save(spec, {"metrics": {"total": 2.0}}, defer_index=True)
        index_text = store.index_path.read_text() if store.index_path.exists() else ""
        assert spec.spec_hash() not in index_text
        store.flush_journal()
        assert not store.journal_path.exists()
        assert spec.spec_hash() in store.index_path.read_text()

    def test_flush_folds_other_writers_entries(self, tmp_path):
        root = tmp_path / "shared"
        writer_a = ArtifactStore(root)
        writer_b = ArtifactStore(root)
        spec_a = RunSpec.make("_dist-sleepy", {"i": 2, "sleep_s": 0.0})
        spec_b = RunSpec.make("_dist-sleepy", {"i": 3, "sleep_s": 0.0})
        writer_a.save(spec_a, {"metrics": {"total": 1.0}}, defer_index=True)
        writer_b.save(spec_b, {"metrics": {"total": 2.0}}, defer_index=True)
        writer_a.flush_journal()
        reopened = ArtifactStore(root)
        assert reopened.has(spec_a) and reopened.has(spec_b)

    def test_torn_journal_line_is_skipped(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        spec = RunSpec.make("_dist-sleepy", {"i": 4, "sleep_s": 0.0})
        store.save(spec, {"metrics": {"total": 3.0}}, defer_index=True)
        with store.journal_path.open("a", encoding="utf-8") as handle:
            handle.write('{"hash": "dead", "entry": {"scena')  # torn write
        reopened = ArtifactStore(tmp_path / "store")
        assert reopened.has(spec)
        assert "dead" not in reopened.index()

    def test_flush_without_journal_touches_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path / "never-written")
        store.flush_journal()
        assert not store.root.exists()


class TestStreamingExport:
    def test_iter_status_rows_is_lazy_and_matches_list(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for i in range(4):
            store.save(
                RunSpec.make("_dist-sleepy", {"i": i, "sleep_s": 0.0}),
                {"metrics": {"total": float(i)}},
            )
        iterator = store.iter_status_rows()
        assert iter(iterator) is iterator  # a true generator, not a list
        assert list(iterator) == store.status_rows()

    def test_csv_streams_every_row_with_union_header(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.save(
            RunSpec.make("_dist-sleepy", {"i": 0, "sleep_s": 0.0}),
            {"metrics": {"alpha": 1.0}},
        )
        store.save(
            RunSpec.make("_dist-sleepy", {"i": 1, "sleep_s": 0.0}),
            {"metrics": {"beta": 2.0}},
        )
        path = store.export_csv(tmp_path / "out.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        header = lines[0]
        assert header.startswith("hash,scenario,scale,seed,params")
        assert "metric.alpha" in header and "metric.beta" in header


# -- CLI ----------------------------------------------------------------------------

class TestDistCli:
    def test_parse_bind(self):
        assert _parse_bind("127.0.0.1:0") == ("127.0.0.1", 0)
        assert _parse_bind("0.0.0.0:7077") == ("0.0.0.0", 7077)
        for bad in ("nohost", ":123", "host:port", "host:99999"):
            with pytest.raises(ValueError):
                _parse_bind(bad)

    def test_worker_requires_concrete_port(self):
        with pytest.raises(SystemExit):
            campaign_main(["worker", "--connect", "127.0.0.1:0"])

    def test_worker_rejects_unimportable_preload(self):
        with pytest.raises(SystemExit):
            campaign_main(
                ["worker", "--connect", "127.0.0.1:1", "--preload", "no_such_mod"]
            )

    def test_zero_workers_only_with_socket(self, tmp_path):
        with pytest.raises(SystemExit):
            campaign_main(
                ["run", "_dist-sleepy", "--workers", "0", "--transport", "local",
                 "--store", str(tmp_path / "s")]
            )

    def test_run_with_local_transport_end_to_end(self, tmp_path, capsys):
        """CLI acceptance: a builtin cell over --transport local, then cached."""
        store = str(tmp_path / "store")
        argv = [
            "run", "pingpong-placement",
            "--set", "placement=inter-nodes", "--set", "message_kib=4",
            "--set", "noise=none",
            "--workers", "2", "--transport", "local", "--store", store,
        ]
        assert campaign_main(argv) == 0
        assert "1 executed, 0 cached" in capsys.readouterr().out
        assert campaign_main(argv) == 0
        assert "0 executed, 1 cached" in capsys.readouterr().out
