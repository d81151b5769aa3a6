"""Wire protocol of the distributed executor: length-prefixed JSON frames.

A frame is a 4-byte big-endian unsigned length followed by that many bytes
of UTF-8 JSON encoding one message object.  The framing is transport
agnostic — the same :class:`Channel` runs over a TCP connection
(cross-host workers) or over one end of a ``socketpair`` shared with a
forked child (the ``local`` transport) — and deliberately boring: every
message is a flat dict with a ``"type"`` key, so the protocol can be
watched with ``tcpdump``/``strace`` and extended without versioned binary
schemas.

Message vocabulary (all coordinator/worker traffic):

================  =========  =================================================
type              direction  meaning
================  =========  =================================================
``hello``         w -> c     worker announces itself (name, pid, host)
``lease``         c -> w     one cell to execute: its serialized ``spec``,
                             plus the coordinator's ``trace`` and
                             ``probes`` switches (booleans)
``result``        w -> c     the leased cell's outcome
                             (payload/report/elapsed/error)
``heartbeat``     w -> c     liveness while executing a long cell
``shutdown``      c -> w     no more work; the worker exits its serve loop
================  =========  =================================================

The coordinator drops a worker that sends it any other frame type, or a
``result`` whose spec does not decode, whose ``elapsed_s`` is not a number,
or that carries neither a dict ``payload`` nor a non-empty ``error``: the
worker's lease is revoked and its cell goes to another worker.

A worker sets its own tracing and probes to a lease's ``trace`` and
``probes`` values before running the cell, so every worker, however it was
started, runs its cells under the coordinator's switches.  With ``trace``
on, a ``result`` frame carries an optional ``telemetry`` dict (the cell's
span/phase snapshot, merged by the coordinator into the store's index
entry); with ``probes`` on, it carries the cell's probe sidecar under
``probes``.

Run specs travel as their wire form (:meth:`repro.campaign.plan.
RunSpec.to_wire`), so a worker needs nothing but the scenario registry to
reconstruct and execute them.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import BinaryIO, Dict, Optional

#: Frame header: 4-byte big-endian payload length.
_HEADER = struct.Struct(">I")

#: Refuse frames above this size — a corrupted length prefix must not make
#: the receiver allocate gigabytes.  Result payloads are JSON metric dicts;
#: 64 MiB is orders of magnitude above any real campaign cell.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A malformed frame or an out-of-protocol message."""


def encode_frame(message: Dict) -> bytes:
    """Serialize one message dict into a length-prefixed frame."""
    body = json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


class Channel:
    """A duplex message channel over a pair of binary streams.

    ``send`` is thread-safe (the worker's heartbeat thread and its result
    stream share one channel); ``recv`` is meant for a single reader.  A
    clean end-of-stream returns ``None`` from :meth:`recv`; a stream that
    dies mid-frame (SIGKILLed peer) raises :class:`ProtocolError`, which
    callers treat exactly like a disconnect.
    """

    def __init__(
        self, reader: BinaryIO, writer: BinaryIO, name: str = "peer", sock=None
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._send_lock = threading.Lock()
        self._closed = False
        self.name = name
        #: The connected socket under the streams, if any (see :meth:`close`).
        self.sock = sock

    @staticmethod
    def over_socket(sock, name: str = "peer") -> "Channel":
        """A channel over a connected socket (one makefile per side)."""
        return Channel(
            sock.makefile("rb"), sock.makefile("wb", buffering=0), name=name, sock=sock
        )

    def send(self, message: Dict) -> None:
        """Send one message; raises ``OSError``/``ValueError`` on a dead peer."""
        frame = encode_frame(message)
        with self._send_lock:
            self._writer.write(frame)
            self._writer.flush()

    def recv(self) -> Optional[Dict]:
        """Receive the next message, or ``None`` on clean end-of-stream."""
        header = self._read_exact(_HEADER.size, allow_eof=True)
        if header is None:
            return None
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame length {length} exceeds {MAX_FRAME_BYTES} — corrupt stream?"
            )
        body = self._read_exact(length, allow_eof=False)
        try:
            message = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"undecodable frame: {exc}") from exc
        if not isinstance(message, dict) or "type" not in message:
            raise ProtocolError(f"message without a type: {message!r}")
        return message

    def _read_exact(self, count: int, allow_eof: bool) -> Optional[bytes]:
        chunks = []
        remaining = count
        while remaining:
            chunk = self._reader.read(remaining)
            if not chunk:
                if allow_eof and remaining == count:
                    return None
                raise ProtocolError(
                    f"stream from {self.name} ended mid-frame "
                    f"({count - remaining}/{count} bytes)"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        """Close both streams (idempotent, swallows errors on dead pipes).

        A socket is shut down first, waking a reader blocked in :meth:`recv`
        on a silent peer; closing its stream would wait on that reader.
        """
        if self._closed:
            return
        self._closed = True
        if self.sock is not None:
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already disconnected
        for stream in (self._writer, self._reader, self.sock):
            if stream is None:
                continue
            try:
                stream.close()
            except OSError:
                pass
