"""Export stored telemetry as Chrome ``trace_event`` JSON.

The output of :func:`chrome_trace` loads directly in ``chrome://tracing``
or https://ui.perfetto.dev: one process row per data source (pid 1 =
campaign cells, pid 2 = the distributed session), one thread row per cell
or per worker, and every recorded span as a complete ("X") event with
its args attached.  Timestamps are wall-clock microseconds: each cell
snapshot carries its capture's wall epoch (``t0``) and span offsets are
relative to it, so cells executed by different worker processes line up on
one shared axis.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Mapping, Optional

from repro.campaign.store import ArtifactStore

#: pid used for per-cell span rows in the exported trace.
CELLS_PID = 1

#: pid used for distributed-session lifecycle rows.
DIST_PID = 2

#: pid used for network-probe counter tracks ("C" events on sim-cycle time).
PROBES_PID = 3


def _metadata(pid: int, tid: int, name: str, kind: str) -> Dict:
    return {
        "name": kind,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def cell_events(spec_hash: str, entry: Mapping, tid: int) -> List[Dict]:
    """Trace events for one index entry's telemetry snapshot."""
    snapshot = entry.get("telemetry")
    if not isinstance(snapshot, Mapping):
        return []
    events_in = snapshot.get("events")
    if not isinstance(events_in, list):
        return []
    try:
        t0 = float(snapshot.get("t0", 0.0))
    except (TypeError, ValueError):
        t0 = 0.0
    label = f"{entry.get('scenario', '?')}/{entry.get('backend', '?')} {spec_hash[:8]}"
    out: List[Dict] = [_metadata(CELLS_PID, tid, label, "thread_name")]
    for ev in events_in:
        if not isinstance(ev, Mapping):
            continue
        try:
            ts = (t0 + float(ev.get("ts", 0.0))) * 1e6
            dur = float(ev.get("dur", 0.0)) * 1e6
        except (TypeError, ValueError):
            continue
        out.append(
            {
                "name": str(ev.get("name", "?")),
                "cat": str(ev.get("cat", "span")),
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": CELLS_PID,
                "tid": tid,
                "args": dict(ev.get("args") or {}),
            }
        )
    return out


def probe_counter_events(snapshot: Mapping, tid: int) -> List[Dict]:
    """Chrome counter ("C") tracks for one probe sidecar's series.

    Probe series live on *simulation-cycle* time, not wall-clock — they get
    their own process row (pid 3) so the cycle axis never mixes with the
    wall-clock spans of pids 1/2.  One thread per probed cell; one counter
    track per (metric, link class), with per-group values as args keys, so
    Perfetto renders each group as a stacked band.
    """
    series = snapshot.get("series")
    if not isinstance(series, list):
        return []
    label = (
        f"{snapshot.get('scenario', '?')}/{snapshot.get('backend', '?')} "
        f"{str(snapshot.get('hash', ''))[:8]}"
    )
    out: List[Dict] = []
    for entry in series:
        if not isinstance(entry, Mapping):
            continue
        name = f"{entry.get('metric', '?')} [{entry.get('cls', '?')}]"
        group_key = f"g{entry.get('group', '?')}"
        times = entry.get("t")
        values = entry.get("v")
        if not isinstance(times, list) or not isinstance(values, list):
            continue
        for t, v in zip(times, values):
            try:
                ts = float(t)
                value = float(v)
            except (TypeError, ValueError):
                continue
            out.append(
                {
                    "name": name,
                    "cat": "probe",
                    "ph": "C",
                    "ts": ts,
                    "pid": PROBES_PID,
                    "tid": tid,
                    "args": {group_key: value},
                }
            )
    if not out:
        return []
    return [_metadata(PROBES_PID, tid, label, "thread_name")] + out


def session_events(session: Mapping, tid_of: Dict[str, int]) -> List[Dict]:
    """Trace events for one distributed-session telemetry payload.

    One complete event per lease, on its worker's row.  Sessions stored
    before leases were per cell list shard timelines under ``shards``
    instead of ``leases``; they render alike, named by shard id.
    """
    out: List[Dict] = []
    timelines = session.get("leases", session.get("shards"))
    if not isinstance(timelines, list):
        return out
    for timeline in timelines:
        if not isinstance(timeline, Mapping):
            continue
        worker = str(timeline.get("worker", "?"))
        if worker not in tid_of:
            tid = len(tid_of) + 1
            tid_of[worker] = tid
            out.append(_metadata(DIST_PID, tid, f"worker {worker}", "thread_name"))
        tid = tid_of[worker]
        try:
            leased_at = float(timeline["leased_at"])
        except (KeyError, TypeError, ValueError):
            continue
        done_at = timeline.get("done_at")
        # A revoked shard of an older store may have got as far as a result.
        first_at = timeline.get("first_result_at")
        end = done_at if isinstance(done_at, (int, float)) else (
            first_at if isinstance(first_at, (int, float)) else leased_at
        )
        args = {
            "attempt": timeline.get("attempt"),
            "revoked": bool(timeline.get("revoked")),
        }
        if "cell" in timeline:
            name = f"cell {timeline['cell']}"
        else:
            name = f"shard {timeline.get('shard', '?')}"
            args["cells"] = timeline.get("cells")
        out.append(
            {
                "name": name,
                "cat": "dist",
                "ph": "X",
                "ts": leased_at * 1e6,
                "dur": max(0.0, (end - leased_at)) * 1e6,
                "pid": DIST_PID,
                "tid": tid,
                "args": args,
            }
        )
        if timeline.get("revoked"):
            out.append(
                {
                    "name": f"revoke {name}",
                    "cat": "dist",
                    "ph": "i",
                    "s": "p",
                    "ts": end * 1e6,
                    "pid": DIST_PID,
                    "tid": tid,
                    "args": {},
                }
            )
    return out


def chrome_trace(store: ArtifactStore) -> Dict:
    """Build a Chrome ``trace_event`` document from a campaign store.

    Includes every index entry that carries a telemetry snapshot (pid 1,
    one thread per cell) and every stored distributed-session payload
    (pid 2, one thread per worker).  Entries without telemetry — cached
    runs, untraced campaigns — are skipped silently.
    """
    events: List[Dict] = [
        _metadata(CELLS_PID, 0, "campaign cells", "process_name"),
        _metadata(DIST_PID, 0, "distributed session", "process_name"),
    ]
    index = store.index()
    tid = 0
    for spec_hash in sorted(index):
        cell = cell_events(spec_hash, index[spec_hash], tid + 1)
        if cell:
            tid += 1
            events.extend(cell)
    worker_tids: Dict[str, int] = {}
    for session in store.load_session_telemetry():
        events.extend(session_events(session, worker_tids))
    probe_tid = 0
    probe_events: List[Dict] = []
    for snapshot in store.iter_probe_snapshots():
        cell = probe_counter_events(snapshot, probe_tid + 1)
        if cell:
            probe_tid += 1
            probe_events.extend(cell)
    if probe_events:
        events.append(
            _metadata(PROBES_PID, 0, "network probes (sim cycles)", "process_name")
        )
        events.extend(probe_events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(store: ArtifactStore, path) -> pathlib.Path:
    """Serialize :func:`chrome_trace` to a file; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(store)) + "\n", encoding="utf-8")
    return path


def validate_trace(trace: Mapping) -> List[str]:
    """Schema-check a trace document; returns a list of problems (empty = ok).

    Checks the subset of the ``trace_event`` format we emit: a
    ``traceEvents`` list whose members carry ``name``/``ph``/``pid``/``tid``,
    with non-negative numeric ``ts``/``dur`` on complete ("X") events and a
    non-negative ``ts`` plus args mapping on counter ("C") events.
    """
    problems: List[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, Mapping):
            problems.append(f"event {i}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        ph = ev.get("ph")
        if ph == "X":
            for key in ("ts", "dur"):
                value = ev.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(f"event {i}: bad {key!r} ({value!r})")
        elif ph == "M":
            if not isinstance(ev.get("args"), Mapping):
                problems.append(f"event {i}: metadata without args")
        elif ph == "C":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"event {i}: bad 'ts' ({ts!r})")
            if not isinstance(ev.get("args"), Mapping):
                problems.append(f"event {i}: counter without args")
    return problems


def trace_categories(trace: Mapping) -> List[str]:
    """Distinct categories present in a trace (layer-coverage checks)."""
    cats = {
        str(ev.get("cat"))
        for ev in trace.get("traceEvents", ())
        if isinstance(ev, Mapping) and ev.get("ph") == "X" and ev.get("cat")
    }
    return sorted(cats)
