"""The distributed worker: lease a cell, run it, send its result, repeat.

A worker is a plain process (same host or another one) running
:func:`serve_channel` over any :class:`~repro.campaign.dist.protocol.
Channel`.  It owns no store and no plan — it announces itself, then for
each ``lease`` frame applies the coordinator's ``trace``/``probes``
switches (:func:`repro.telemetry.core.set_instrumentation`, so a worker
started by hand on another host records exactly what a forked one does),
runs the leased cell with the executor's single-cell runner
(:func:`repro.campaign.executor.run_cell`) and answers with one ``result``
frame.

Liveness is a background heartbeat: while a cell runs, a daemon thread
pings the coordinator every ``heartbeat_s`` so a long-running cell is
distinguishable from a dead worker.  :func:`serve_socket` is the body
of a ``repro campaign worker --connect`` process; :func:`serve_forked` is
the body of a child the coordinator forked for the ``local`` transport.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
from typing import Iterable, Optional

from repro.campaign.dist.protocol import Channel, ProtocolError
from repro.campaign.plan import RunSpec
from repro.telemetry.core import set_instrumentation
from repro.telemetry.log import get_logger, log_event

#: Default liveness ping interval (seconds).  Must be well under the
#: coordinator's lease timeout; see DistOptions.lease_timeout_s.
DEFAULT_HEARTBEAT_S = 2.0


def default_worker_name() -> str:
    """host-pid identity used in hello frames and coordinator logs."""
    return f"{socket.gethostname()}:{os.getpid()}"


class _Heartbeat:
    """Background pinger active while ``busy`` is set (a cell runs)."""

    def __init__(self, channel: Channel, interval_s: float) -> None:
        self._channel = channel
        self._interval_s = interval_s
        self.busy = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            if not self.busy.is_set():
                continue
            try:
                self._channel.send({"type": "heartbeat"})
            except (OSError, ValueError):
                return  # coordinator is gone; the main loop will notice too


def serve_channel(
    channel: Channel,
    name: Optional[str] = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    log=None,
) -> int:
    """Serve cell leases over an established channel until shutdown.

    Returns the number of cells executed.  Failures inside a cell become
    error records in the result stream (exactly like the serial executor);
    only a broken channel or a protocol violation raises.
    """
    from repro.campaign import ensure_builtin_scenarios
    from repro.campaign.executor import run_cell

    ensure_builtin_scenarios()
    name = name or default_worker_name()
    if log is None:
        logger = get_logger("campaign.dist.worker")
        log = lambda text: log_event(logger, "worker", worker=name, detail=text)  # noqa: E731
    channel.send(
        {"type": "hello", "worker": name, "pid": os.getpid(), "host": socket.gethostname()}
    )
    heartbeat = _Heartbeat(channel, heartbeat_s)
    executed = 0
    try:
        while True:
            message = channel.recv()
            if message is None or message["type"] == "shutdown":
                break
            if message["type"] != "lease":
                raise ProtocolError(
                    f"worker expected a lease or shutdown, got {message['type']!r}"
                )
            spec = RunSpec.from_wire(message["spec"])
            set_instrumentation(bool(message["trace"]), bool(message["probes"]))
            log(f"[{name}] leased {spec.label()}")
            heartbeat.busy.set()
            record = run_cell(spec)
            heartbeat.busy.clear()
            executed += 1
            result = {
                "type": "result",
                "spec": message["spec"],
                "elapsed_s": record.elapsed_s,
                "error": record.error,
            }
            if record.payload is not None:
                result["payload"] = record.payload
                result["report"] = record.report
            if record.telemetry is not None:
                result["telemetry"] = record.telemetry
            if record.probes is not None:
                result["probes"] = record.probes
            channel.send(result)
    finally:
        heartbeat.stop()
        channel.close()
    log(f"[{name}] done ({executed} cell(s) executed)")
    return executed


def serve_socket(
    host: str,
    port: int,
    name: Optional[str] = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    log=None,
) -> int:
    """Connect to a coordinator's TCP endpoint and serve until shutdown."""
    sock = socket.create_connection((host, port))
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass  # not fatal; some stacks refuse the option
    channel = Channel(sock, name=f"coordinator@{host}:{port}")
    try:
        return serve_channel(channel, name=name, heartbeat_s=heartbeat_s, log=log)
    finally:
        sock.close()


def serve_forked(
    sock: socket.socket,
    inherited: Iterable[socket.socket] = (),
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
) -> int:
    """Serve the coordinator this process was forked from; returns an exit code.

    ``sock`` is the child's end of a ``socketpair``; ``inherited`` are the
    coordinator-side sockets the fork copied.  They are closed by fd, never
    through their :class:`Channel`, whose ``shutdown()`` would cut the
    coordinator's connection too; a copy left open here would hide
    end-of-stream from a sibling worker if the coordinator died.  Stray
    prints go to fd 2 (``os.dup2(2, 1)``: ``sys.stderr`` may have no file
    descriptor under a test harness).  The caller must leave by
    ``os._exit``: interpreter exit would run the coordinator's
    ``atexit``/``weakref.finalize`` hooks, deleting its temporary
    directories.
    """
    for inherited_sock in inherited:
        fd = inherited_sock.detach()
        if fd >= 0:
            os.close(fd)
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    channel = Channel(sock, name="coordinator@fork")
    try:
        serve_channel(channel, heartbeat_s=heartbeat_s, log=lambda text: None)
    except (ProtocolError, OSError, ValueError):
        return 3  # the coordinator is gone
    return 0
