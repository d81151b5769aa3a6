"""Distributed campaign execution: cell-leasing workers over sockets.

This package is the campaign engine's one parallel executor
(:func:`repro.campaign.executor.execute_plan` hands it every run with more
than one worker), on one host or across hosts:

* :mod:`repro.campaign.dist.protocol` — length-prefixed JSON frames over a
  byte stream (a TCP connection or a ``socketpair`` with a forked child)
  and the message vocabulary (hello / lease / result / heartbeat /
  shutdown);
* :mod:`repro.campaign.dist.worker` — the worker loop: lease one cell, run
  it with the executor's single-cell runner, send its result back,
  heartbeat while busy;
* :mod:`repro.campaign.dist.coordinator` — forks or spawns the workers,
  leases cells one at a time (heaviest estimated cell first), merges each
  result into the artifact store as it arrives (journaled, atomic index
  updates, deduped by spec hash) and re-leases the cell of a worker whose
  heartbeats stop, so a SIGKILLed worker costs only its in-flight cell, a
  cell that keeps killing its worker fails alone, and a killed campaign
  resumes from whatever the store already holds.
"""

from repro.campaign.dist.coordinator import Coordinator, DistOptions, run_distributed
from repro.campaign.dist.protocol import Channel, ProtocolError
from repro.campaign.dist.worker import serve_channel, serve_forked, serve_socket

__all__ = [
    "Channel",
    "Coordinator",
    "DistOptions",
    "ProtocolError",
    "run_distributed",
    "serve_channel",
    "serve_forked",
    "serve_socket",
]
