"""Finished runs free themselves by reference counting; flit links stay small.

A finished flow run (network, job, every sent message and its send
request) and every isolated-baseline network of a cluster replay must
die as soon as the last outside reference goes, with the cyclic garbage
collector switched off.  These tests guard three reference cycles that
would otherwise keep them alive until a collection pass: message ->
``on_acked`` closure -> send request -> payload -> message, network ->
solver engine -> bound method -> network, and job -> rank context -> job.
Liveness is checked with weak references while ``gc`` is disabled;
nothing here calls ``gc.collect()``.

A flit link keeps only the occupancy samples a routing read can still
return, so a long run's links hold at most ``credit_info_delay`` cycles
of history each.

A running job keeps MPI matching state only for messages in flight:
workloads put the iteration in every tag, so each matching key is used
once, and an emptied key must go rather than stay for the job's life.
"""

from __future__ import annotations

import gc
import os
import weakref
from contextlib import contextmanager

import pytest

import repro.model.flow.network as flow_network_module
import repro.mpi.job as job_module
import repro.network.network as flit_network_module
from repro.cluster import ClusterScheduler, JobTrace
from repro.config import SimulationConfig, TopologyConfig
from repro.experiments.harness import ExperimentScale
from repro.model.base import build_network_model
from repro.model.flow.network import FlowNetwork
from repro.mpi.job import MpiJob
from repro.mpi.request import Request
from repro.network.network import Network
from repro.network.packet import Message
from repro.noise.background import BackgroundTraffic, NoiseLevel
from repro.telemetry import disable, disable_probes
from repro.workloads.microbench import AlltoallBenchmark, PingPongBenchmark


@pytest.fixture(autouse=True)
def _instrumentation_off():
    # A probe sampler refers back to its network; these tests measure the
    # uninstrumented program.
    disable()
    disable_probes()
    yield
    disable()
    disable_probes()


@contextmanager
def _gc_disabled():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def tracked(monkeypatch):
    """Weak references to every Message and (kind, Request) the program creates.

    Both classes use ``__slots__`` without a weak-reference slot, so the
    modules that build them get a subclass that adds one.
    """
    refs = {"messages": [], "requests": []}

    class TrackedMessage(Message):
        __slots__ = ("__weakref__",)

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs["messages"].append(weakref.ref(self))

    class TrackedRequest(Request):
        __slots__ = ("__weakref__",)

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs["requests"].append((self.kind, weakref.ref(self)))

    monkeypatch.setattr(flow_network_module, "Message", TrackedMessage)
    monkeypatch.setattr(flit_network_module, "Message", TrackedMessage)
    monkeypatch.setattr(job_module, "Request", TrackedRequest)
    return refs


def _flow_config() -> SimulationConfig:
    return SimulationConfig.small(seed=3).with_host(os_noise_probability=0.0)


def _pingpong(ctx):
    for _ in range(5):
        if ctx.rank == 0:
            yield ctx.isend(1, 4096)
            yield ctx.irecv(1)
        else:
            yield ctx.irecv(0)
            yield ctx.isend(0, 4096)


class TestFinishedRunsFreeThemselves:
    def test_flow_pingpong_job_dies_with_its_last_reference(self, tracked):
        with _gc_disabled():
            network = FlowNetwork(_flow_config())
            job = MpiJob(network, [0, network.num_nodes - 1], name="memory")
            job.run(_pingpong)
            refs = {"network": weakref.ref(network), "job": weakref.ref(job)}
            del network, job
            alive = [name for name, ref in refs.items() if ref() is not None]
            messages = [ref() is not None for ref in tracked["messages"]]
            sends = [ref() is not None for kind, ref in tracked["requests"]
                     if kind == "send"]
            requests = [ref() is not None for _, ref in tracked["requests"]]
        assert alive == []
        assert len(messages) == 10 and not any(messages)
        assert len(sends) == 10 and not any(sends)
        assert not any(requests)

    def test_baseline_networks_die_when_their_run_returns(self, monkeypatch):
        config = SimulationConfig(
            topology=TopologyConfig(
                num_groups=3, chassis_per_group=2, blades_per_chassis=2,
                nodes_per_router=2,
            ),
            seed=5,
            backend="flow",
        )
        built = []

        def baseline_factory():
            network = build_network_model(config)
            built.append(weakref.ref(network))
            return network

        alive_on_return = []
        isolated_cycles = ClusterScheduler._isolated_cycles

        def checked(self, record):
            cycles = isolated_cycles(self, record)
            alive_on_return.append(sum(ref() is not None for ref in built))
            return cycles

        monkeypatch.setattr(ClusterScheduler, "_isolated_cycles", checked)
        # Without os.fork the baselines run in this process, after the
        # replay, where the weak references can see them; a forked child
        # would build them out of sight.
        monkeypatch.delattr(os, "fork", raising=False)
        with _gc_disabled():
            network = build_network_model(config)
            trace = JobTrace.synthetic(5, 4, load="heavy", max_nodes=8)
            ClusterScheduler(network, trace, baseline_factory=baseline_factory).replay()
        assert len(built) == 4
        assert alive_on_return == [0, 0, 0, 0]


class TestMessageCallbacks:
    @pytest.mark.parametrize("backend", [Network, FlowNetwork])
    def test_each_callback_fires_once_then_is_dropped(self, backend):
        network = backend(_flow_config())
        fired = {"delivered": 0, "acked": 0}

        def delivered(message):
            fired["delivered"] += 1

        def acked(message):
            fired["acked"] += 1

        message = network.send(0, network.num_nodes - 1, 8192,
                               on_delivered=delivered, on_acked=acked)
        network.run_until_idle()
        assert fired == {"delivered": 1, "acked": 1}
        assert message.on_delivered is None
        assert message.on_acked is None


class TestFlitOccupancyHistory:
    def test_link_histories_span_less_than_the_credit_delay(self):
        # The smoke-scale noisy ping-pong of TestSmokePingPongDigest: about
        # 49,000 cycles, far longer than the 400-cycle delay.
        scale = ExperimentScale.smoke()
        config = scale.simulation_config().with_backend("flit")
        network = build_network_model(config)
        allocation = [0, network.num_nodes - 1]
        noise = BackgroundTraffic.for_level(
            network, allocation, NoiseLevel.MODERATE, name="bench-noise"
        )
        noise.start()
        job = MpiJob(network, allocation, name="bench-flit")
        PingPongBenchmark(
            size_bytes=scale.scaled_size(16 * 1024),
            iterations=scale.pingpong_repetitions,
            warmup=1,
        ).run(job)
        noise.stop()
        delay = config.routing.credit_info_delay
        assert delay > 0 and network.sim.now > 10 * delay
        spans = [
            link._occ_history[-1][0] - link._occ_history[0][0]
            for link in network.fabric_links()
            if link._occ_history
        ]
        assert spans
        assert max(spans) < delay
        # Routing never reads host links, and they keep no history.
        hosts = (*network._injection_links, *network._ejection_links)
        assert not any(link._occ_history for link in hosts)


class TestMatchingStateBounded:
    @pytest.mark.parametrize("backend, iterations", [("flow", 40), ("flit", 10)])
    def test_alltoall_leaves_no_matching_keys(self, backend, iterations):
        # Every alltoall step has its own tag, so a job that kept emptied
        # keys would hold thousands of them here, growing with iterations.
        config = SimulationConfig.small(seed=3).with_backend(backend)
        for n in (iterations, 2 * iterations):
            network = build_network_model(config)
            step = network.num_nodes // 8
            job = MpiJob(network, [rank * step for rank in range(8)], name="a2a")
            AlltoallBenchmark(size_bytes=1024, iterations=n).run(job)
            assert job._pending_recvs == {}
            assert job._unexpected == {}
