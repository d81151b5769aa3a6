"""Wire protocol of the distributed executor: length-prefixed JSON frames.

A frame is a 4-byte big-endian unsigned length followed by that many bytes
of UTF-8 JSON encoding one message object.  A :class:`Channel` carries
frames over one connected socket: a TCP connection (cross-host workers)
or one end of a ``socketpair`` shared with a forked child (the ``local``
transport).  Its one frame decoder serves both a worker's blocking
:meth:`Channel.recv` and the coordinator's selector loop, which reads a
socket only when it is readable (:meth:`Channel.read_frames`).  The
framing is deliberately boring: every message is a flat dict with a
``"type"`` key, so the protocol can be watched with ``tcpdump``/``strace``
and extended without versioned binary schemas.

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
from typing import Dict, List, Optional

#: Frame header: 4-byte big-endian payload length.
_HEADER = struct.Struct(">I")

#: Refuse frames above this size — a corrupted length prefix must not make
#: the receiver allocate gigabytes.  Result payloads are JSON metric dicts;
#: 64 MiB is orders of magnitude above any real campaign cell.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Bytes asked of one ``recv`` call.
_READ_BYTES = 64 * 1024


class ProtocolError(RuntimeError):
    """A malformed frame or an out-of-protocol message."""


def encode_frame(message: Dict) -> bytes:
    """Serialize one message dict into a length-prefixed frame."""
    body = json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


class Channel:
    """A duplex message channel over one connected socket.

    ``send`` is thread-safe (the worker's heartbeat thread and its result
    stream share one channel).  Received bytes collect in one buffer that
    a single reader drains, either blocking in :meth:`recv` or taking what
    one read completed with :meth:`read_frames`.  A clean end-of-stream
    returns ``None``; a stream that dies mid-frame (SIGKILLed peer) raises
    :class:`ProtocolError`, which callers treat exactly like a disconnect.
    """

    def __init__(self, sock: socket.socket, name: str = "peer") -> None:
        self.sock = sock
        self.name = name
        self._buffer = bytearray()
        self._send_lock = threading.Lock()

    def send(self, message: Dict) -> None:
        """Send one message; raises ``OSError`` on a dead peer."""
        frame = encode_frame(message)
        with self._send_lock:
            self.sock.sendall(frame)

    def recv(self) -> Optional[Dict]:
        """Block for the next message, or ``None`` on clean end-of-stream."""
        message = self._next_message()
        while message is None and self._fill():
            message = self._next_message()
        return message

    def read_frames(self) -> Optional[List[Dict]]:
        """The messages one read completed (maybe none); ``None`` at end-of-stream.

        The coordinator calls this only when its selector reports the
        socket readable, so the one ``recv`` never blocks.
        """
        if not self._fill():
            return None
        return list(iter(self._next_message, None))

    def _fill(self) -> bool:
        """Append one read to the buffer; ``False`` at a clean end-of-stream."""
        chunk = self.sock.recv(_READ_BYTES)
        if chunk:
            self._buffer += chunk
            return True
        if self._buffer:
            raise ProtocolError(
                f"stream from {self.name} ended mid-frame "
                f"({len(self._buffer)} bytes of an unfinished frame)"
            )
        return False

    def _next_message(self) -> Optional[Dict]:
        """Decode the first whole frame off the buffer, or ``None`` if none is."""
        if len(self._buffer) < _HEADER.size:
            return None
        (length,) = _HEADER.unpack_from(self._buffer)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame length {length} exceeds {MAX_FRAME_BYTES} — corrupt stream?"
            )
        end = _HEADER.size + length
        if len(self._buffer) < end:
            return None
        body = self._buffer[_HEADER.size:end]
        del self._buffer[:end]
        try:
            message = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"undecodable frame: {exc}") from exc
        if not isinstance(message, dict) or "type" not in message:
            raise ProtocolError(f"message without a type: {message!r}")
        return message

    def close(self) -> None:
        """Shut the socket down, then close it (idempotent, swallows errors).

        Shutting down first ends the stream for the peer even while a
        forked child still holds a copy of this descriptor.
        """
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        self.sock.close()
