#!/usr/bin/env python
"""Quickstart: build a Dragonfly, send messages, read the NIC counters.

This example walks through the lowest layer of the library:

1. configure and build a small Aries-like Dragonfly network;
2. send RDMA PUT messages between nodes under different routing modes;
3. read the four NIC counters the paper relies on (request flits, stall
   cycles, request packets, cumulative latency) and feed them into the
   Section 2.4 performance model;
4. let Algorithm 1 pick the routing mode for each send of a two-rank MPI
   job (the application-aware policy).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    ApplicationAwarePolicy,
    MpiJob,
    Network,
    RoutingMode,
    SimulationConfig,
    estimate_transmission_cycles,
)


def send_and_measure(network: Network, mode: RoutingMode, size_bytes: int) -> None:
    """Send one message with a fixed routing mode and print its counters."""
    src, dst = 0, network.num_nodes - 1
    nic = network.nic(src)
    before = nic.counters.snapshot()
    message = network.send(src, dst, size_bytes, routing_mode=mode)
    network.run_until_idle()
    delta = nic.counters.snapshot().delta(before)
    estimate = estimate_transmission_cycles(
        size_bytes, delta.avg_packet_latency, delta.stall_ratio, network.config.nic
    )
    print(
        f"  {mode.value:12s} T_msg={message.transmission_time:>8} cycles   "
        f"L={delta.avg_packet_latency:8.1f}  s={delta.stall_ratio:6.3f}  "
        f"model={estimate:8.1f}  minimal={message.minimal_fraction():.0%}"
    )


def main() -> None:
    # A 4-group Dragonfly: 2 chassis x 4 blades per group, 4 nodes per blade.
    config = SimulationConfig.small(seed=7)
    print(f"building a Dragonfly with {config.topology.num_nodes} nodes "
          f"in {config.topology.num_groups} groups")

    print("\n1) one 64 KiB PUT between two groups, per routing mode:")
    for mode in (RoutingMode.ADAPTIVE_0, RoutingMode.ADAPTIVE_3, RoutingMode.MIN_HASH):
        # A fresh network per mode keeps the comparison clean.
        send_and_measure(Network(config), mode, 64 * 1024)

    print("\n2) Algorithm 1 picking the mode for each send of an MPI job:")
    network = Network(config)
    # Rank 0 on node 0 sends to rank 1 on the last node.  Before every send
    # the job asks the rank's policy for a mode; once the send is acked it
    # feeds the NIC-counter delta back to the policy.
    job = MpiJob(
        network,
        [0, network.num_nodes - 1],
        policy_factory=lambda: ApplicationAwarePolicy(config.nic),
        name="quickstart",
    )

    def program(ctx):
        for index in range(6):
            if ctx.rank == 1:
                yield ctx.irecv(0)
                continue
            send = ctx.isend(1, 64 * 1024)
            yield send
            message = send.payload  # the acked Message
            print(
                f"  send {index}: mode={message.routing_mode.value:12s} "
                f"T_msg={message.transmission_time} cycles"
            )

    job.run(program)
    print(
        f"  fraction of rank 0's bytes sent with the Default family: "
        f"{job.policies[0].default_traffic_fraction():.0%}"
    )
    # The job-level figure weights each rank by the bytes it sent, so the
    # receive-only rank 1 does not dilute it: it matches rank 0's.
    print(
        f"  fraction of the job's bytes sent with the Default family: "
        f"{job.default_traffic_fraction():.0%}"
    )


if __name__ == "__main__":
    main()
