"""Tests for the MPI-like layer: requests, jobs, point-to-point and collectives."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.config import SimulationConfig
from repro.core.policy import ApplicationAwarePolicy, default_policy, high_bias_policy
from repro.core.selector import SelectorParams
from repro.model.flow.network import FlowNetwork
from repro.mpi.job import MpiJob
from repro.mpi.request import Request
from repro.network.counters import NicCounters
from repro.network.network import Network
from repro.network.packet import Message
from repro.noise.background import BackgroundTraffic, NoiseLevel
from repro.routing.modes import RoutingMode
from repro.workloads.microbench import PingPongBenchmark


def quiet_config():
    """A configuration with OS noise disabled (deterministic host delays)."""
    return SimulationConfig.small().with_host(os_noise_probability=0.0)


class TestRequest:
    def test_completion(self):
        request = Request("send", 0)
        seen = []
        request.add_callback(lambda r: seen.append(r.completion_time))
        request.complete(42)
        assert request.done
        assert seen == [42]

    def test_late_callback_fires_immediately(self):
        request = Request("send", 0)
        request.complete(1)
        seen = []
        request.add_callback(lambda r: seen.append(True))
        assert seen == [True]

    def test_double_completion_rejected(self):
        request = Request("recv", 0)
        request.complete(1)
        with pytest.raises(RuntimeError):
            request.complete(2)

    def test_payload(self):
        request = Request("recv", 0)
        request.complete(5, payload="hello")
        assert request.payload == "hello"


class TestJobConstruction:
    def test_rank_placement(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0, 5, 9])
        assert job.size == 3
        assert job.node_of(1) == 5
        assert job.ranks_on_node(5) == 1

    def test_multiple_ranks_per_node(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0, 0, 0, 0])
        assert job.ranks_on_node(0) == 4

    def test_empty_job_rejected(self):
        network = Network(quiet_config())
        with pytest.raises(ValueError):
            MpiJob(network, [])

    def test_unknown_node_rejected(self):
        network = Network(quiet_config())
        with pytest.raises(ValueError):
            MpiJob(network, [0, 10_000])

    def test_policy_per_rank(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0, 1], policy_factory=high_bias_policy)
        assert len(job.policies) == 2
        assert job.policy_label() == "HighBias"
        assert job.default_traffic_fraction() == 0.0

    def test_default_fraction_is_byte_weighted(self):
        # The quickstart's job: rank 0 sends six 64 KiB messages under
        # Algorithm 1, rank 1 only receives.  Rank 1's policy reports 0.0
        # for no bytes; weighted by bytes sent it must not count.
        config = SimulationConfig.small(seed=7)
        network = Network(config)
        job = MpiJob(
            network,
            [0, network.num_nodes - 1],
            policy_factory=lambda: ApplicationAwarePolicy(config.nic),
            name="quickstart",
        )

        def program(ctx):
            for _ in range(6):
                if ctx.rank == 1:
                    yield ctx.irecv(0)
                else:
                    yield ctx.isend(1, 64 * 1024)

        job.run(program)
        assert job.policies[0].default_traffic_fraction() == 0.5
        assert job.policies[1].default_traffic_fraction() == 0.0
        assert job.default_traffic_fraction() == 0.5


class TestPointToPoint:
    def test_blocking_send_recv(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0, network.num_nodes - 1])
        received = []

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 4096, tag="m")
            else:
                req = ctx.irecv(0, tag="m")
                yield req
                received.append(ctx.now)

        end = job.run(program)
        assert job.finished
        assert received and received[0] <= end

    def test_send_before_recv_posted(self):
        """Unexpected-message path: the send arrives before the recv is posted."""
        network = Network(quiet_config())
        job = MpiJob(network, [0, 4])

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 1024, tag="x")
            else:
                yield ctx.compute(50_000)  # delay the recv posting
                yield ctx.irecv(0, tag="x")

        job.run(program)
        assert job.finished

    def test_recv_before_send_posted(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0, 4])

        def program(ctx):
            if ctx.rank == 1:
                yield ctx.irecv(0, tag="y")
            else:
                yield ctx.compute(50_000)
                yield ctx.isend(1, 1024, tag="y")

        job.run(program)
        assert job.finished

    def test_intra_node_transfer_bypasses_network(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0, 0])

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 65536, tag="shm")
            else:
                yield ctx.irecv(0, tag="shm")

        job.run(program)
        assert network.nic(0).counters.request_packets == 0  # no network traffic

    def test_message_ordering_fifo_per_key(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0, 6])
        order = []

        def program(ctx):
            if ctx.rank == 0:
                for i in range(3):
                    yield ctx.isend(1, 512, tag="seq")
            else:
                for i in range(3):
                    req = ctx.irecv(0, tag="seq")
                    yield req
                    order.append(i)

        job.run(program)
        assert order == [0, 1, 2]

    def test_sendrecv(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0, 7])

        def program(ctx):
            peer = 1 - ctx.rank
            yield from ctx.sendrecv(peer, peer, 2048, tag="xchg")

        job.run(program)
        assert job.finished

    def test_compute_advances_time(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0])
        times = []

        def program(ctx):
            start = ctx.now
            yield ctx.compute(10_000)
            times.append(ctx.now - start)

        job.run(program)
        assert times[0] >= 10_000

    def test_mode_decided_by_policy(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0, network.num_nodes - 1], policy_factory=high_bias_policy)
        modes = []

        def program(ctx):
            if ctx.rank == 0:
                request = ctx.isend(1, 8192, tag="m")
                yield request
                modes.append(request.payload.routing_mode)
            else:
                yield ctx.irecv(0, tag="m")

        job.run(program)
        assert modes == [RoutingMode.ADAPTIVE_3]

    def test_rank_out_of_range(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0, 1])
        with pytest.raises(ValueError):
            job.post_send(0, 5, 64)

    def test_failure_in_program_propagates(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0, 1])

        def program(ctx):
            if ctx.rank == 0:
                raise RuntimeError("boom")
            yield ctx.compute(10)

        with pytest.raises(RuntimeError, match="boom"):
            job.run(program)

    def test_deadlock_detected_as_missing_events(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0, 1])

        def program(ctx):
            # Both ranks wait for a message that never arrives.
            yield ctx.irecv(1 - ctx.rank, tag="never")

        with pytest.raises(RuntimeError):
            job.run(program)


@pytest.mark.parametrize("backend", [Network, FlowNetwork])
class TestRequestResults:
    """A completed request reports what it completed with, and when."""

    @staticmethod
    def _job(backend):
        config = SimulationConfig.small(seed=3).with_host(os_noise_probability=0.0)
        network = backend(config)
        return MpiJob(network, [0, network.num_nodes - 1])

    def test_recv_posted_after_arrival_gets_the_message(self, backend):
        job = self._job(backend)
        seen = {}

        def program(ctx):
            if ctx.rank == 0:
                send = ctx.isend(1, 1024, tag="late")
                yield send
                seen["sent"] = send.payload
            else:
                yield ctx.compute(50_000)
                recv = ctx.irecv(0, tag="late")
                yield recv
                seen["received"] = recv.payload

        job.run(program)
        message = seen["sent"]
        assert isinstance(message, Message)
        assert message.delivered_time < 50_000
        assert seen["received"] is message

    def test_compute_reports_the_cycle_it_completes(self, backend):
        job = self._job(backend)
        seen = []

        def program(ctx):
            posted = ctx.now
            request = ctx.compute(50_000)
            yield request
            seen.append((posted, request.completion_time, ctx.now))

        job.run(program)
        assert len(seen) == 2
        for posted, completed, resumed in seen:
            assert completed == posted + 50_000 == resumed

    def test_unexpected_messages_are_received_in_send_order(self, backend):
        job = self._job(backend)
        sizes = []

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 512, tag="twice")
                yield ctx.isend(1, 4096, tag="twice")
            else:
                yield ctx.compute(200_000)
                first = ctx.irecv(0, tag="twice")
                second = ctx.irecv(0, tag="twice")
                yield [first, second]
                sizes.extend(r.payload.size_bytes for r in (first, second))

        job.run(program)
        assert sizes == [512, 4096]
        assert job._pending_recvs == {} and job._unexpected == {}


class TestCollectives:
    @pytest.mark.parametrize("ranks", [2, 3, 4, 7, 8])
    def test_barrier_completes(self, ranks):
        network = Network(quiet_config())
        job = MpiJob(network, list(range(0, ranks * 3, 3)))

        def program(ctx):
            yield from ctx.barrier()

        job.run(program)
        assert job.finished

    @pytest.mark.parametrize("ranks", [2, 4, 8])
    def test_allreduce_power_of_two(self, ranks):
        network = Network(quiet_config())
        job = MpiJob(network, list(range(ranks)))

        def program(ctx):
            yield from ctx.allreduce(4096)

        job.run(program)
        assert job.finished

    @pytest.mark.parametrize("ranks", [3, 5, 6])
    def test_allreduce_non_power_of_two(self, ranks):
        network = Network(quiet_config())
        job = MpiJob(network, list(range(ranks)))

        def program(ctx):
            yield from ctx.allreduce(4096)

        job.run(program)
        assert job.finished

    @pytest.mark.parametrize("ranks", [2, 4, 5, 8])
    def test_alltoall(self, ranks):
        network = Network(quiet_config())
        job = MpiJob(network, list(range(ranks)))

        def program(ctx):
            yield from ctx.alltoall(512)

        job.run(program)
        assert job.finished

    def test_alltoall_generates_all_pairs_traffic(self):
        network = Network(quiet_config())
        nodes = list(range(0, 8, 2))
        job = MpiJob(network, nodes)

        def program(ctx):
            yield from ctx.alltoall(1024)

        job.run(program)
        # Every NIC in the job must have sent to every other rank: P-1 messages.
        for node in nodes:
            assert network.nic(node).messages_sent >= len(nodes) - 1

    @pytest.mark.parametrize("ranks,root", [(4, 0), (5, 2), (8, 7)])
    def test_bcast_and_reduce(self, ranks, root):
        network = Network(quiet_config())
        job = MpiJob(network, list(range(ranks)))

        def program(ctx):
            yield from ctx.bcast(2048, root=root)
            yield from ctx.reduce(2048, root=root)

        job.run(program)
        assert job.finished

    def test_bcast_root_sends_no_recv(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0, 4, 8, 12])

        def program(ctx):
            yield from ctx.bcast(4096, root=0)

        job.run(program)
        # The root's NIC sent at least one message, rank 3's sent none for bcast.
        assert network.nic(0).messages_sent >= 1

    @pytest.mark.parametrize("ranks", [2, 3, 6])
    def test_allgather(self, ranks):
        network = Network(quiet_config())
        job = MpiJob(network, list(range(ranks)))

        def program(ctx):
            yield from ctx.allgather(1024)

        job.run(program)
        assert job.finished

    def test_single_rank_collectives_are_trivial(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0])

        def program(ctx):
            yield from ctx.barrier()
            yield from ctx.allreduce(1024)
            yield from ctx.alltoall(1024)
            yield from ctx.bcast(1024)
            yield from ctx.allgather(1024)
            yield from ctx.reduce(1024)
            yield ctx.compute(10)

        job.run(program)
        assert job.finished

    def test_alltoall_marks_collective_for_policy(self):
        """Alltoall traffic must reach the policy with collective='alltoall'."""
        seen = []

        class ProbePolicy(default_policy().__class__):
            def mode_for(self, size_bytes, dst_node, collective=None):
                seen.append(collective)
                return super().mode_for(size_bytes, dst_node, collective)

        network = Network(quiet_config())
        job = MpiJob(
            network,
            [0, 3, 6, 9],
            policy_factory=lambda: ProbePolicy(
                RoutingMode.ADAPTIVE_0, alltoall_mode=RoutingMode.ADAPTIVE_1
            ),
        )

        def program(ctx):
            yield from ctx.alltoall(2048)

        job.run(program)
        assert "alltoall" in seen

    def test_consecutive_collectives(self):
        network = Network(quiet_config())
        job = MpiJob(network, list(range(4)))

        def program(ctx):
            for i in range(3):
                yield from ctx.allreduce(1024, tag=("ar", i))
                yield from ctx.barrier(tag=("b", i))

        job.run(program)
        assert job.finished

    def test_job_reports_simulation_end_time(self):
        network = Network(quiet_config())
        job = MpiJob(network, [0, 5])

        def program(ctx):
            yield from ctx.barrier()

        end = job.run(program)
        assert end == network.sim.now


class _RecordingPolicy(ApplicationAwarePolicy):
    """Algorithm 1, recording every ``(snapshot, mode)`` it is fed."""

    def __init__(self, calls: list):
        super().__init__(SimulationConfig().nic, SelectorParams(threshold_bytes=0))
        self._calls = calls

    def observe(self, counters, mode):
        self._calls.append((dataclasses.astuple(counters), mode.value))
        super().observe(counters, mode)


def _noisy_flow_pingpong(policy_factory) -> FlowNetwork:
    """Inter-group 16 KiB ping-pong on the flow backend, under moderate noise."""
    network = FlowNetwork(SimulationConfig.small().with_backend("flow"))
    allocation = [0, network.num_nodes - 1]
    noise = BackgroundTraffic.for_level(
        network, allocation, NoiseLevel.MODERATE, name="observe-noise"
    )
    noise.start()
    job = MpiJob(network, allocation, policy_factory=policy_factory, name="observed")
    PingPongBenchmark(size_bytes=16384, iterations=6, warmup=1).run(job)
    noise.stop()
    return network


class TestAlgorithm1Feedback:
    """What the MPI layer feeds Algorithm 1 after every acked network send."""

    #: Digest of the ``(snapshot, mode)`` sequence, recorded before sends
    #: stopped snapshotting counters for policies that do not observe.
    OBSERVED_DIGEST = "368b0b7bb2338ee49ad9526b9747e8c23676fe6eb20ec42512c36dce72a848a3"

    def test_observed_sequence_is_pinned(self):
        calls: list = []
        network = _noisy_flow_pingpong(lambda: _RecordingPolicy(calls))
        sent = network.nic(0).messages_sent + network.nic(network.num_nodes - 1).messages_sent
        assert len(calls) == sent > 0
        assert {mode for _, mode in calls} == {"ADAPTIVE_0", "ADAPTIVE_3"}
        assert any(snapshot[1] > 0 for snapshot, _ in calls)  # stalls under noise
        digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()
        assert digest == self.OBSERVED_DIGEST

    def test_static_policy_sends_take_no_snapshot(self, monkeypatch):
        snapshots = []
        snapshot = NicCounters.snapshot

        def counting(self):
            snapshots.append(1)
            return snapshot(self)

        monkeypatch.setattr(NicCounters, "snapshot", counting)
        network = _noisy_flow_pingpong(default_policy)
        assert network.nic(0).messages_sent > 0
        assert snapshots == []
