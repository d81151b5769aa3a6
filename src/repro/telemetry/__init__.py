"""Zero-dependency observability: tracing, metrics, structured logging.

Three pieces, all stdlib-only:

* :mod:`repro.telemetry.core` — the :data:`TELEMETRY` singleton with a
  span :class:`Tracer` and :class:`Metrics` registry; no-op unless
  enabled (``enable()`` or ``REPRO_TELEMETRY=1``) so instrumented hot
  paths cost one attribute lookup when off.  Its
  :func:`set_instrumentation` is the one switch for tracing and network
  probes (:mod:`repro.telemetry.probes`), and its :class:`capture` scopes
  both to one campaign cell.
* :mod:`repro.telemetry.log` — structured stderr logging
  (``REPRO_LOG=json|text``) used by the distributed runtime instead of
  stray prints.
* :mod:`repro.telemetry.export` — Chrome ``trace_event`` export and
  phase-timing aggregation over a campaign store.
"""

from repro.telemetry.core import (
    MAX_EVENTS,
    NULL_SPAN,
    TELEMETRY,
    TELEMETRY_ENV_VAR,
    Metrics,
    Span,
    Telemetry,
    Tracer,
    capture,
    disable,
    enable,
    env_enabled,
    set_instrumentation,
    snapshot_of,
    timed,
)
from repro.telemetry.log import (
    LOG_FORMAT_ENV_VAR,
    LOG_LEVEL_ENV_VAR,
    get_logger,
    log_event,
    reset_logging,
)
from repro.telemetry.probes import (
    PROBES,
    PROBES_ENV_VAR,
    ProbeRecorder,
    ProbeSampler,
    Probes,
    RingSeries,
    disable_probes,
    enable_probes,
    env_probes_enabled,
)

__all__ = [
    "LOG_FORMAT_ENV_VAR",
    "LOG_LEVEL_ENV_VAR",
    "MAX_EVENTS",
    "NULL_SPAN",
    "PROBES",
    "PROBES_ENV_VAR",
    "TELEMETRY",
    "TELEMETRY_ENV_VAR",
    "Metrics",
    "ProbeRecorder",
    "ProbeSampler",
    "Probes",
    "RingSeries",
    "Span",
    "Telemetry",
    "Tracer",
    "capture",
    "disable",
    "disable_probes",
    "enable",
    "enable_probes",
    "env_enabled",
    "env_probes_enabled",
    "get_logger",
    "log_event",
    "reset_logging",
    "set_instrumentation",
    "snapshot_of",
    "timed",
]
