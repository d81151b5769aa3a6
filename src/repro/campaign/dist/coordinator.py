"""The distributed coordinator: lease cells, merge results, survive deaths.

The coordinator owns the campaign: it resolves cache hits against the
artifact store (so a killed campaign resumes from whatever the store
already holds), queues the misses heaviest estimated cell first
(:func:`_dispatch_order`), leases them one cell at a time to workers over
the wire protocol and merges every result into the store the moment it
arrives — journaled, atomically indexed and deduped by spec hash, so two
deliveries of the same cell can never double-write.  A worker's next
lease goes out before its last result is saved, so no worker waits on a
store write.

Failure model
-------------

Workers prove liveness through traffic: results and background heartbeats
both refresh a lease.  A lease that goes silent for ``lease_timeout_s`` —
or whose connection drops, or whose worker sends a malformed ``result`` or
a frame type the coordinator does not accept — is revoked and its cell
re-queued for the next free worker.  A cell whose ``max_leases`` leases
were all revoked becomes a failed record, so a cell that kills its worker
fails alone and cannot wedge the campaign.  Workers the coordinator
started itself are replaced (within a budget) when they die with work
still pending.

``local`` workers are children forked from the coordinator, one
``socketpair`` each (:func:`~repro.campaign.dist.worker.serve_forked`), so
they start without an interpreter start-up and with every registered
scenario.  ``socket`` workers, and ``local`` ones where ``os.fork`` does
not exist, are spawned ``repro campaign worker --connect`` processes: the
code an external worker runs.
"""

from __future__ import annotations

import os
import pathlib
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.campaign.dist.protocol import Channel, ProtocolError
from repro.campaign.dist.worker import DEFAULT_HEARTBEAT_S, serve_forked
from repro.campaign.executor import CampaignResult, ProgressFn, RunRecord, run_audits
from repro.campaign.plan import CampaignPlan, RunSpec
from repro.campaign.store import ArtifactStore
from repro.telemetry.core import TELEMETRY
from repro.telemetry.log import get_logger, log_event
from repro.telemetry.probes import PROBES

import logging

TRANSPORTS = ("local", "socket")


def _can_fork() -> bool:
    """Whether ``local`` workers are forked (else spawned; see the module doc)."""
    return hasattr(os, "fork")


@dataclass(frozen=True)
class DistOptions:
    """Knobs of one distributed execution."""

    #: Worker processes the coordinator starts (socket transport also
    #: accepts external ``repro campaign worker --connect`` processes on
    #: top of these; ``workers=0`` is valid there and waits for them).
    workers: int = 2
    transport: str = "local"
    #: Socket transport: listen address (port 0 picks an ephemeral port).
    bind_host: str = "127.0.0.1"
    bind_port: int = 0
    #: Revoke a lease after this much silence (no result/heartbeat).
    lease_timeout_s: float = 30.0
    heartbeat_s: float = DEFAULT_HEARTBEAT_S
    #: Fail a cell after this many of its leases were revoked.
    max_leases: int = 3
    #: Module spawned workers import before serving (extra scenarios).
    #: Forked ``local`` workers ignore it: they already hold every
    #: scenario this process registered.
    preload: Optional[str] = None
    #: Extra environment for spawned workers (merged over the parent's).
    #: Forked ``local`` workers ignore it, like ``preload``.
    extra_env: Optional[Mapping[str, str]] = None

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r} (choose from {TRANSPORTS})"
            )
        if self.workers < 0 or (self.transport == "local" and self.workers < 1):
            raise ValueError("workers must be >= 1 (>= 0 for socket transport)")
        if self.lease_timeout_s <= 0 or self.heartbeat_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.lease_timeout_s <= 2 * self.heartbeat_s:
            raise ValueError(
                "lease_timeout_s must exceed two heartbeat intervals, or every "
                "scheduling hiccup would look like a dead worker"
            )
        if self.max_leases < 1:
            raise ValueError("max_leases must be >= 1")


def _dispatch_order(plan: CampaignPlan, specs: Sequence[RunSpec]) -> List[RunSpec]:
    """The order cells are leased in: heaviest estimated work first.

    The sort is stable, so cells of equal work, and every cell of a plan
    without cost annotations (``plan.costs``), keep their plan order.
    """
    work = {cell.spec: cell.work for cell in plan.costs}
    return sorted(specs, key=lambda spec: -work.get(spec, 0.0))


@dataclass
class _Lease:
    """One cell leased to one worker."""

    spec: RunSpec
    spec_hash: str
    #: Which of the cell's leases this is (1 = the first).
    attempt: int
    last_seen: float
    #: Telemetry timeline of this lease (None when telemetry is disabled).
    timeline: Optional[Dict] = None


class _ForkedProcess:
    """A forked worker, watched through the :class:`subprocess.Popen` calls
    the coordinator makes (``pid``, ``poll``, ``wait``, ``kill``)."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:
                self.returncode = 0  # reaped elsewhere; as Popen assumes
            else:
                if pid:
                    self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self) -> int:
        if self.poll() is None:
            self.returncode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.returncode

    def kill(self) -> None:
        if self.poll() is None:
            os.kill(self.pid, signal.SIGKILL)


_Process = Union[subprocess.Popen, _ForkedProcess]


class _WorkerHandle:
    """Coordinator-side state of one connected worker."""

    _counter = 0

    def __init__(self, channel: Channel, proc: Optional[_Process] = None) -> None:
        _WorkerHandle._counter += 1
        self.handle_id = _WorkerHandle._counter
        self.channel = channel
        self.proc = proc
        self.name = f"worker-{self.handle_id}"
        self.ready = False  # a hello frame arrived
        self.lease: Optional[_Lease] = None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None


class Coordinator:
    """Runs one campaign plan over a fleet of cell-leasing workers."""

    def __init__(
        self,
        plan: CampaignPlan,
        store: Optional[ArtifactStore] = None,
        options: DistOptions = DistOptions(),
        progress: Optional[ProgressFn] = None,
        force: bool = False,
    ) -> None:
        for spec in plan:
            if spec.is_auto:
                raise ValueError(
                    f"spec {spec.label()} is unrouted — plan with a "
                    "BackendRouter before distributing"
                )
        self.plan = plan
        self.store = store
        self.options = options
        self.progress = progress
        self.force = force
        self._events: "queue.Queue[Tuple[str, _WorkerHandle, Optional[Dict]]]" = queue.Queue()
        self._handles: Dict[int, _WorkerHandle] = {}
        #: Cells waiting for a worker, each with its count of leases so far.
        self._pending: Deque[Tuple[RunSpec, int]] = deque()
        self._records: List[Optional[RunRecord]] = [None] * len(plan)
        self._index_of = {spec.spec_hash(): i for i, spec in enumerate(plan)}
        self._outstanding: Set[str] = set()
        self._reported = 0
        self._spawned: List[_Process] = []
        self._reaped: Set[int] = set()
        self._respawn_budget = options.workers * max(1, options.max_leases - 1)
        self._listener = None
        self._accept_thread: Optional[threading.Thread] = None
        self._readers: List[threading.Thread] = []
        #: The coordinator's end of every socketpair of a forked worker.
        self._pair_ends: List[socket.socket] = []
        self._stopping = threading.Event()
        self._log = get_logger("campaign.dist.coordinator")
        # Session telemetry: per-cell lease->done timelines, heartbeat-gap
        # distribution, revocation count, journal flush cost.
        self._telemetry_on = TELEMETRY.enabled
        # Every lease carries this process's switches, so each worker runs
        # its cells traced and probed exactly as the coordinator is.
        self._probes_on = PROBES.enabled
        self._timelines: List[Dict] = []
        self._heartbeat_gaps: List[float] = []
        self._revocations = 0
        if options.transport == "socket" or not _can_fork():
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if options.transport == "socket":
                self._listener.bind((options.bind_host, options.bind_port))
            else:
                self._listener.bind(("127.0.0.1", 0))
            self._listener.listen(16)

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The bound (host, port) spawned workers connect to, else ``None``."""
        if self._listener is None:
            return None
        return self._listener.getsockname()[:2]

    @property
    def worker_pids(self) -> List[int]:
        """PIDs of the live workers this coordinator started (tests kill these)."""
        return [proc.pid for proc in self._spawned if proc.poll() is None]

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> CampaignResult:
        """Execute the plan; returns records in plan order, like the serial loop."""
        result = CampaignResult(plan=self.plan, workers=self.options.workers)
        misses = self._resolve_cached()
        try:
            if misses:
                self._pending.extend(
                    (spec, 0) for spec in _dispatch_order(self.plan, misses)
                )
                self._outstanding = {spec.spec_hash() for spec in misses}
                self._start_workers(min(self.options.workers, len(misses)))
                self._event_loop()
        finally:
            self._shutdown()
        result.records = [r for r in self._records if r is not None]
        return result

    # -- cache resolution ------------------------------------------------------

    def _resolve_cached(self) -> List[RunSpec]:
        misses: List[RunSpec] = []
        for index, spec in enumerate(self.plan):
            if self.store is not None and not self.force and self.store.has(spec):
                payload = self.store.load(spec)
                report = payload.get("report", "") if isinstance(payload, dict) else ""
                self._records[index] = RunRecord(
                    spec=spec,
                    payload=payload,
                    report=report if isinstance(report, str) else "",
                    cached=True,
                )
            else:
                misses.append(spec)
        if self.progress is not None:
            for record in self._records:
                if record is not None:
                    self._reported += 1
                    self.progress(self._reported, len(self.plan), record)
        return misses

    # -- worker plumbing -------------------------------------------------------

    def _start_workers(self, count: int) -> None:
        if self._listener is None:
            # The whole fleet forks before any reader thread starts, so
            # each child is a copy of a single-threaded process.
            for handle in [self._fork_worker() for _ in range(count)]:
                self._register(handle)
            return
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        for _ in range(count):
            self._spawn_worker()

    def _fork_worker(self) -> _WorkerHandle:
        ours, theirs = socket.socketpair()
        self._pair_ends.append(ours)
        # Unflushed output would otherwise be written twice, once by each
        # process.
        for stream in (sys.stdout, sys.stderr):
            stream.flush()
        pid = os.fork()
        if pid == 0:  # the child never returns into the coordinator
            code = 1
            try:
                code = serve_forked(
                    theirs,
                    inherited=self._pair_ends,
                    heartbeat_s=self.options.heartbeat_s,
                )
            except Exception:  # noqa: BLE001 - report, then exit below
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(code)
        theirs.close()
        proc = _ForkedProcess(pid)
        self._spawned.append(proc)
        log_event(self._log, "worker.forked", pid=pid)
        return _WorkerHandle(Channel.over_socket(ours, name=f"pid-{pid}"), proc=proc)

    def _worker_command(self) -> List[str]:
        host, port = self.address
        command = [sys.executable, "-m", "repro.experiments.cli", "campaign", "worker",
                   "--connect", f"{host}:{port}"]
        command.extend(["--heartbeat", str(self.options.heartbeat_s), "--quiet"])
        if self.options.preload:
            command.extend(["--preload", self.options.preload])
        return command

    def _worker_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env.update(self.options.extra_env or {})
        # The worker runs `-m repro.experiments.cli`, so the child must be
        # able to import repro even when the parent got it from a path
        # pytest/pyproject injected into *this* process only (uninstalled
        # checkouts); prepending our own package root is harmless otherwise.
        import repro

        package_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        if package_root not in (existing or "").split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + os.pathsep + existing if existing else package_root
            )
        return env

    def _spawn_worker(self) -> None:
        # Workers inherit stderr: they log there by design, and swallowing
        # it would make a worker-death loop undiagnosable — the spawned
        # fleet runs --quiet, so only real failures (tracebacks, import
        # errors) surface.  They register through the accept loop.
        proc = subprocess.Popen(
            self._worker_command(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=None,
            env=self._worker_env(),
        )
        self._spawned.append(proc)
        log_event(self._log, "worker.spawned", pid=proc.pid,
                  transport=self.options.transport)

    def _register(self, handle: _WorkerHandle) -> None:
        self._handles[handle.handle_id] = handle
        reader = threading.Thread(target=self._reader_loop, args=(handle,), daemon=True)
        self._readers.append(reader)
        reader.start()

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return  # listener closed during shutdown
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            channel = Channel.over_socket(conn, name=f"{peer[0]}:{peer[1]}")
            handle = _WorkerHandle(channel)
            self._events.put(("accepted", handle, None))

    def _reader_loop(self, handle: _WorkerHandle) -> None:
        while True:
            try:
                message = handle.channel.recv()
            except (ProtocolError, OSError, ValueError):
                message = None
            if message is None:
                self._events.put(("closed", handle, None))
                return
            self._events.put(("message", handle, message))

    # -- main loop -------------------------------------------------------------

    def _event_loop(self) -> None:
        tick = min(1.0, self.options.heartbeat_s)
        while self._outstanding:
            try:
                kind, handle, message = self._events.get(timeout=tick)
            except queue.Empty:
                self._check_leases()
                self._reap_spawned()
                self._check_starvation()
                continue
            if kind == "accepted":
                self._register(handle)
            elif kind == "closed":
                self._on_closed(handle)
            elif kind == "message":
                self._on_message(handle, message)
            self._reap_spawned()

    def _on_message(self, handle: _WorkerHandle, message: Dict) -> None:
        if handle.lease is not None:
            if self._telemetry_on:
                gap = time.monotonic() - handle.lease.last_seen
                if len(self._heartbeat_gaps) < 4096:
                    self._heartbeat_gaps.append(gap)
            handle.lease.last_seen = time.monotonic()
        kind = message["type"]
        if kind == "hello":
            handle.ready = True
            handle.name = str(message.get("worker", handle.name))
            self._assign_work(handle)
        elif kind == "heartbeat":
            pass  # the timestamp refresh above is the whole point
        elif kind == "result":
            self._merge_result(handle, message)
        else:
            self._revoke(handle, "worker.bad_frame", frame=kind)

    def _merge_result(self, handle: _WorkerHandle, message: Dict) -> None:
        # A frame that names no plannable spec, carries neither a payload
        # nor an error, or has no elapsed time is the worker's fault: merged,
        # it would crash this loop or store a cell that is neither executed
        # nor failed.
        payload = message.get("payload")
        error = message.get("error", "")
        elapsed_s = message.get("elapsed_s")
        try:
            spec = RunSpec.from_wire(message["spec"])
            spec_hash = spec.spec_hash()
        except (KeyError, TypeError, ValueError, AttributeError):
            spec = None
        if (
            spec is None
            or not isinstance(error, str)
            or not (isinstance(payload, dict) or error)
            or isinstance(elapsed_s, bool)
            or not isinstance(elapsed_s, (int, float))
        ):
            self._revoke(handle, "worker.bad_frame", frame="result")
            return
        lease = handle.lease
        if lease is not None and lease.spec == spec:
            handle.lease = None
            if lease.timeline is not None:
                lease.timeline["done_at"] = time.time()
            # The next lease goes out before the store write in _finish.
            self._assign_work(handle)
        if spec_hash not in self._outstanding:
            return  # a duplicate delivery; already merged
        telemetry = message.get("telemetry")
        probes = message.get("probes")
        record = RunRecord(
            spec=spec,
            payload=payload,
            report=str(message.get("report", "")),
            elapsed_s=float(elapsed_s),
            error=str(error),
            telemetry=telemetry if isinstance(telemetry, dict) else None,
            probes=probes if isinstance(probes, dict) else None,
        )
        self._finish(spec_hash, record)

    def _finish(self, spec_hash: str, record: RunRecord) -> None:
        self._outstanding.discard(spec_hash)
        self._records[self._index_of[spec_hash]] = record
        if record.ok and not record.cached and self.store is not None:
            # Journaled save: the result file lands now, the index update is
            # an O(1) append — flushed (atomically) once at shutdown.
            self.store.save(
                record.spec,
                record.payload,
                record.report,
                record.elapsed_s,
                defer_index=True,
                telemetry=record.telemetry,
                probes=record.probes,
            )
        if self.progress is not None:
            self._reported += 1
            self.progress(self._reported, len(self.plan), record)

    def _assign_work(self, handle: _WorkerHandle) -> None:
        if handle.lease is not None or not handle.ready:
            return
        if not self._pending:
            return  # stays idle; may be re-used when a lease is revoked
        spec, leases = self._pending.popleft()
        lease = _Lease(
            spec=spec,
            spec_hash=spec.spec_hash(),
            attempt=leases + 1,
            last_seen=time.monotonic(),
        )
        if self._telemetry_on:
            lease.timeline = {
                "worker": handle.name,
                "cell": lease.spec_hash,
                "attempt": lease.attempt,
                "leased_at": time.time(),
                "done_at": None,
                "revoked": False,
            }
            self._timelines.append(lease.timeline)
        handle.lease = lease
        log_event(self._log, "lease.assigned", cell=lease.spec_hash,
                  worker=handle.name, attempt=lease.attempt)
        try:
            handle.channel.send(
                {
                    "type": "lease",
                    "spec": spec.to_wire(),
                    "trace": self._telemetry_on,
                    "probes": self._probes_on,
                }
            )
        except (OSError, ValueError):
            # The worker died between accept and lease; the reader loop will
            # deliver "closed", which re-queues via _on_closed.
            pass

    def _on_closed(self, handle: _WorkerHandle) -> None:
        self._handles.pop(handle.handle_id, None)
        handle.channel.close()
        lease, handle.lease = handle.lease, None
        if lease is not None:
            self._requeue(lease)
        for idle in list(self._handles.values()):
            self._assign_work(idle)

    def _reap_spawned(self) -> None:
        """Start replacements for started workers that died with work left.

        Covers every way of starting one uniformly: a dead forked child
        *and* a dead spawned one (whose handle carries no process reference
        — it registered through the accept loop) show up here as an exited
        process.  Each death spends one unit of the respawn budget, which
        bounds the blast radius of a cell that reliably kills its worker.
        """
        if not self._outstanding:
            return
        for proc in list(self._spawned):
            if proc.poll() is None or proc.pid in self._reaped:
                continue
            self._reaped.add(proc.pid)
            if self._respawn_budget > 0:
                self._respawn_budget -= 1
                log_event(self._log, "worker.respawned", level=logging.WARNING,
                          dead_pid=proc.pid, budget_left=self._respawn_budget)
                if self._listener is None:
                    # Unlike the first fleet, this forks while reader
                    # threads run; the child touches none of their state.
                    self._register(self._fork_worker())
                else:
                    self._spawn_worker()

    def _check_leases(self) -> None:
        now = time.monotonic()
        for handle in list(self._handles.values()):
            lease = handle.lease
            if lease is None:
                continue
            if now - lease.last_seen > self.options.lease_timeout_s:
                self._revoke(handle, "lease.revoked",
                             silent_s=round(now - lease.last_seen, 3))

    def _revoke(self, handle: _WorkerHandle, event: str, **fields) -> None:
        """Drop a silent or protocol-violating worker and revoke its lease.

        Closing the channel pops the reader loop, which funnels into
        :meth:`_on_closed` for the re-queue of the lease's cell.
        Frames it queued before that are still handled, so the handle stops
        being ready: no new lease goes to a closed channel.  A worker this
        coordinator started is killed too.
        """
        handle.ready = False
        lease = handle.lease
        if lease is not None:
            self._revocations += 1
            if lease.timeline is not None:
                lease.timeline["revoked"] = True
        log_event(self._log, event, level=logging.WARNING,
                  cell=lease.spec_hash if lease is not None else None,
                  worker=handle.name, **fields)
        if handle.proc is not None and handle.proc.poll() is None:
            handle.proc.kill()
        handle.channel.close()

    def _check_starvation(self) -> None:
        """Abandon work that can never run: no workers and no way to get any.

        The one mode that waits indefinitely is the deliberate listen-only
        fleet (``--transport socket --workers 0``): there, external workers
        are the *only* execution substrate and may attach at any time.  A
        run that asked for its own spawned fleet does not get that grace —
        once the fleet is gone and the respawn budget is spent, waiting for
        a hypothetical external worker would wedge the campaign forever,
        which is exactly what the abandon path exists to prevent.
        """
        if not self._pending or self._handles:
            return
        if self._respawn_budget > 0 and self.options.workers > 0:
            return  # a replacement spawn is still possible
        if self.options.transport == "socket" and self.options.workers == 0:
            return  # listen-only mode: external workers may still attach
        for spec, _ in self._pending:
            self._abandon(spec, "abandoned: no workers left and respawn budget spent")
        self._pending.clear()

    def _requeue(self, lease: _Lease) -> None:
        """Queue a revoked lease's cell again, or fail it after max_leases."""
        if lease.spec_hash not in self._outstanding:
            return
        if lease.attempt >= self.options.max_leases:
            self._abandon(
                lease.spec,
                f"abandoned after {lease.attempt} revoked lease(s): its worker "
                "died or went silent every time",
            )
            return
        self._pending.append((lease.spec, lease.attempt))
        log_event(self._log, "cell.requeued", cell=lease.spec_hash,
                  attempts=lease.attempt)

    def _abandon(self, spec: RunSpec, reason: str) -> None:
        spec_hash = spec.spec_hash()
        if spec_hash not in self._outstanding:
            return
        log_event(self._log, "cell.abandoned", level=logging.WARNING,
                  cell=spec_hash, reason=reason)
        self._finish(spec_hash, RunRecord(spec=spec, error=reason))

    # -- teardown --------------------------------------------------------------

    def _shutdown(self) -> None:
        self._stopping.set()
        for handle in list(self._handles.values()):
            try:
                handle.channel.send({"type": "shutdown"})
            except (OSError, ValueError):
                pass
        if self._listener is not None:
            try:
                # Wakes the accept loop; close() alone may not.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
            if self._accept_thread is not None:
                self._accept_thread.join(timeout=5.0)
        deadline = time.monotonic() + 5.0
        for proc in self._spawned:
            while proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.001)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        for handle in list(self._handles.values()):
            handle.channel.close()
        self._handles.clear()
        # Closed channels end their reader loops; joining them means a
        # later run in this process forks its fleet from a single thread.
        for reader in self._readers:
            reader.join(timeout=5.0)
        self._readers.clear()
        if self.store is not None:
            flush_t0 = time.perf_counter()
            self.store.flush_journal()
            flush_s = time.perf_counter() - flush_t0
            log_event(self._log, "journal.flushed",
                      flush_s=round(flush_s, 6))
            if self._telemetry_on and self._timelines:
                gaps = self._heartbeat_gaps
                self.store.save_session_telemetry(
                    {
                        "kind": "dist",
                        "transport": self.options.transport,
                        "workers": self.options.workers,
                        "leases": self._timelines,
                        "revocations": self._revocations,
                        "journal_flush_s": round(flush_s, 6),
                        "heartbeat_gaps": {
                            "count": len(gaps),
                            "max_s": round(max(gaps), 6) if gaps else 0.0,
                            "mean_s": round(sum(gaps) / len(gaps), 6) if gaps else 0.0,
                        },
                    }
                )


def run_distributed(
    plan: CampaignPlan,
    store: Optional[ArtifactStore] = None,
    options: DistOptions = DistOptions(),
    progress: Optional[ProgressFn] = None,
    force: bool = False,
    audit_fraction: float = 0.0,
) -> CampaignResult:
    """Execute a plan on the distributed coordinator/worker topology.

    What :func:`repro.campaign.executor.execute_plan` runs for more than
    one worker: the serial loop's store-as-cache semantics, plan-ordered
    records and audit post-pass (audits stay serial in the coordinator
    process — they are a small high-fidelity sample by design).
    """
    coordinator = Coordinator(
        plan, store=store, options=options, progress=progress, force=force
    )
    result = coordinator.run()
    if audit_fraction > 0.0:
        run_audits(plan, result, store, audit_fraction, force=force)
    return result
