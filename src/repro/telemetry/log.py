"""Structured logging for the campaign runtime (stdlib ``logging`` only).

One stderr handler is installed lazily on the ``repro`` root logger the
first time :func:`get_logger` runs.  ``REPRO_LOG`` selects the wire
format — ``text`` (default, ``key=value`` pairs) or ``json`` (one object
per line) — and ``REPRO_LOG_LEVEL`` the threshold (default ``INFO``).

Call sites emit *events*, not prose::

    log_event(logger, "lease.revoked", worker="w1", silent_s=31.5)

so the same call renders as either::

    lease.revoked worker=w1 silent_s=31.5
    {"ts": ..., "level": "INFO", "event": "lease.revoked", "worker": "w1", ...}
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from typing import Any

#: Environment variable selecting the log format (``text`` or ``json``).
LOG_FORMAT_ENV_VAR = "REPRO_LOG"

#: Environment variable selecting the log level (name or number).
LOG_LEVEL_ENV_VAR = "REPRO_LOG_LEVEL"

_ROOT_NAME = "repro"
_configured = False


class _TextFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        msg = record.getMessage()
        fields = getattr(record, "event_fields", None)
        if fields:
            pairs = " ".join(f"{k}={_scalar(v)}" for k, v in fields.items())
            return f"{msg} {pairs}"
        return msg


class _JsonFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(time.time(), 6),
            "level": record.levelname,
            "logger": record.name,
            "event": record.getMessage(),
        }
        fields = getattr(record, "event_fields", None)
        if fields:
            payload.update(fields)
        return json.dumps(payload, sort_keys=False, default=str)


def _scalar(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    return f'"{text}"' if " " in text else text


def _configure() -> None:
    global _configured
    root = logging.getLogger(_ROOT_NAME)
    fmt = os.environ.get(LOG_FORMAT_ENV_VAR, "text").strip().lower()
    formatter: logging.Formatter
    formatter = _JsonFormatter() if fmt == "json" else _TextFormatter()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(formatter)
    root.addHandler(handler)
    root.propagate = False
    level_raw = os.environ.get(LOG_LEVEL_ENV_VAR, "INFO").strip().upper()
    level = logging.getLevelName(level_raw)
    root.setLevel(level if isinstance(level, int) else logging.INFO)
    _configured = True


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy, configuring it on first use."""
    if not _configured:
        _configure()
    if name == _ROOT_NAME or name.startswith(_ROOT_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


def reset_logging() -> None:
    """Drop installed handlers so tests can re-configure with fresh env."""
    global _configured
    root = logging.getLogger(_ROOT_NAME)
    for handler in list(root.handlers):
        root.removeHandler(handler)
    _configured = False


def log_event(logger: logging.Logger, event: str,
              level: int = logging.INFO, **fields: Any) -> None:
    """Emit a structured event with key=value fields."""
    if logger.isEnabledFor(level):
        logger.log(level, event, extra={"event_fields": fields})
