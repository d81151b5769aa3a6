"""Distributed campaign execution: sharded workers over sockets.

This package is the campaign engine's one parallel executor
(:func:`repro.campaign.executor.execute_plan` hands it every run with more
than one worker), on one host or across hosts:

* :mod:`repro.campaign.dist.protocol` — length-prefixed JSON frames over a
  byte stream (a TCP connection or a ``socketpair`` with a forked child)
  and the message vocabulary (hello / lease / result / shard-done /
  heartbeat / shutdown);
* :mod:`repro.campaign.dist.shard` — :class:`ShardPlanner` partitions a
  cost-annotated plan into balanced shards (LPT over the planner's cost
  estimates);
* :mod:`repro.campaign.dist.worker` — the worker loop: lease a shard,
  execute cell by cell with the executor's single-cell runner, stream each
  result back as it completes, heartbeat while busy;
* :mod:`repro.campaign.dist.coordinator` — forks or spawns the workers,
  leases shards, merges streamed results into the artifact store
  incrementally (journaled, atomic index updates, deduped by spec hash)
  and re-leases the shards of workers whose heartbeats stop, so a
  SIGKILLed worker costs only its in-flight cells and a killed campaign
  resumes from whatever the store already holds.
"""

from repro.campaign.dist.coordinator import Coordinator, DistOptions, run_distributed
from repro.campaign.dist.protocol import Channel, ProtocolError
from repro.campaign.dist.shard import Shard, ShardPlanner
from repro.campaign.dist.worker import serve_channel, serve_forked, serve_socket

__all__ = [
    "Channel",
    "Coordinator",
    "DistOptions",
    "ProtocolError",
    "Shard",
    "ShardPlanner",
    "run_distributed",
    "serve_channel",
    "serve_forked",
    "serve_socket",
]
