"""Result cache + artifact store for campaign runs.

Layout under the store root::

    index.json            # spec hash -> run metadata (scenario, params, ...)
    results/<hash>.json   # canonical JSON payload (byte-stable per spec)
    reports/<hash>.txt    # human-readable report text
    audits.json           # flow-spec hash -> audit metadata (flit twin, deltas)
    audits/<hash>.json    # flow-vs-flit audit payload, keyed by the flow hash
    probes/<hash>.json    # network-probe sidecar (link series, sampled decisions)

Result JSON is written with sorted keys and a fixed indent, so the same
:class:`~repro.campaign.plan.RunSpec` always produces byte-identical
artifacts — the determinism tests rely on this, and it makes the store
safely shareable/diffable across machines.

Concurrent writers and the journal
----------------------------------

Index writes are atomic (write a temp file, ``os.replace`` it) and merge
with the on-disk state first, so two processes saving disjoint runs into a
shared store can't truncate or clobber each other's entries.  The
distributed coordinator additionally saves with ``defer_index=True``:
result files land immediately but the index update is an O(1) append to
``journal.jsonl`` instead of a full index rewrite per streamed result.
Opening a store replays any pending journal (a crashed coordinator loses
nothing that reached disk), and :meth:`ArtifactStore.flush_journal` folds
the journal into ``index.json`` and removes it.
"""

from __future__ import annotations

import csv
import json
import os
import pathlib
import time
from typing import Dict, Iterator, List, Mapping, Optional

from repro.analysis.stats import percentile
from repro.campaign.plan import RunSpec


def canonical_json(payload: Mapping) -> str:
    """The byte-stable serialization used for all result artifacts."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def max_abs_rel_delta(deltas: Mapping[str, Mapping[str, float]]) -> Optional[float]:
    """Largest ``|rel|`` across audit delta entries, or ``None`` if no entry
    has one (all flit values zero, or no shared metrics at all).

    The single definition shared by :class:`ArtifactStore.save_audit` and
    :meth:`repro.campaign.executor.AuditRecord.max_abs_rel`, so the CLI run
    line and the status table can never disagree about the same audit.
    """
    rels = [
        abs(entry["rel"])
        for entry in deltas.values()
        if isinstance(entry, Mapping) and "rel" in entry
    ]
    return max(rels) if rels else None


class ArtifactStore:
    """Content-addressed store of campaign run results."""

    def __init__(self, root) -> None:
        self.root = pathlib.Path(root)
        self.results_dir = self.root / "results"
        self.reports_dir = self.root / "reports"
        self.audits_dir = self.root / "audits"
        self.probes_dir = self.root / "probes"
        self.index_path = self.root / "index.json"
        self.audits_index_path = self.root / "audits.json"
        self.journal_path = self.root / "journal.jsonl"
        # Directories are created lazily on first save() so that read-only
        # commands (status, dry-run) don't create stores as a side effect.
        self._index: Dict[str, Dict] = self._load_json(self.index_path)
        self._audits: Dict[str, Dict] = self._load_json(self.audits_index_path)
        #: Whether this store object journaled entries not yet flushed.
        self._journal_dirty = False
        # Crash recovery: deferred-index saves whose coordinator never
        # flushed are replayed (in memory — the next flush persists them).
        for spec_hash, entry in self._read_journal():
            self._index[spec_hash] = entry

    # -- index ---------------------------------------------------------------

    @staticmethod
    def _load_json(path: pathlib.Path) -> Dict[str, Dict]:
        if path.exists():
            return json.loads(path.read_text(encoding="utf-8"))
        return {}

    def _merge_write(self, path: pathlib.Path, current: Dict[str, Dict]) -> Dict[str, Dict]:
        # Merge with the on-disk index first so two processes sharing a store
        # (each saving disjoint runs) don't clobber each other's entries;
        # then write-then-rename so a crash mid-write can't truncate it.
        on_disk = self._load_json(path)
        on_disk.update(current)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(canonical_json(on_disk), encoding="utf-8")
        os.replace(tmp, path)
        return on_disk

    def _write_index(self) -> None:
        self._index = self._merge_write(self.index_path, self._index)

    def index(self) -> Dict[str, Dict]:
        """A copy of the index (hash -> metadata)."""
        return {k: dict(v) for k, v in self._index.items()}

    def __len__(self) -> int:
        return len(self._index)

    # -- cache protocol --------------------------------------------------------

    def result_path(self, spec: RunSpec) -> pathlib.Path:
        """Where the result JSON for a spec lives."""
        return self.results_dir / f"{spec.spec_hash()}.json"

    def report_path(self, spec: RunSpec) -> pathlib.Path:
        """Where the report text for a spec lives."""
        return self.reports_dir / f"{spec.spec_hash()}.txt"

    def has(self, spec: RunSpec) -> bool:
        """Whether a stored result exists for this exact spec."""
        return spec.spec_hash() in self._index and self.result_path(spec).exists()

    def load(self, spec: RunSpec) -> Dict:
        """Load the stored payload for a spec (KeyError if absent)."""
        if not self.has(spec):
            raise KeyError(f"no stored result for {spec.label()} ({spec.spec_hash()})")
        return json.loads(self.result_path(spec).read_text(encoding="utf-8"))

    def save(
        self,
        spec: RunSpec,
        payload: Mapping,
        report: str = "",
        elapsed: Optional[float] = None,
        defer_index: bool = False,
        telemetry: Optional[Mapping] = None,
        probes: Optional[Mapping] = None,
    ) -> pathlib.Path:
        """Persist one run's payload (and report text) and update the index.

        ``defer_index=True`` (streaming writers, e.g. the distributed
        coordinator) appends the index entry to the journal instead of
        rewriting ``index.json`` — an O(1) disk operation per result; call
        :meth:`flush_journal` when the stream ends.

        ``telemetry`` (a snapshot from :mod:`repro.telemetry`) is recorded
        in the index entry next to ``elapsed_s`` — never in the result
        payload, which must stay byte-identical per spec.  The store adds
        its own artifact-write time as the ``store`` phase and surfaces the
        snapshot's simulate-only time as ``sim_s``.

        ``probes`` (a snapshot from :mod:`repro.telemetry.probes`) lands as
        a per-cell sidecar under ``probes/<hash>.json`` with a small summary
        in the index entry — like telemetry, it is never part of the result
        payload.
        """
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.reports_dir.mkdir(parents=True, exist_ok=True)
        path = self.result_path(spec)
        store_t0 = time.perf_counter()
        path.write_text(canonical_json(payload), encoding="utf-8")
        if report:
            self.report_path(spec).write_text(report + "\n", encoding="utf-8")
        store_s = time.perf_counter() - store_t0
        entry: Dict[str, object] = {
            "scenario": spec.scenario,
            "params": spec.params_dict,
            "scale": spec.scale,
            "seed": spec.seed,
            "backend": spec.backend,
            "result": str(path.relative_to(self.root)),
        }
        if spec.routed_from:
            entry["routed_from"] = spec.routed_from
        if report:
            entry["report"] = str(self.report_path(spec).relative_to(self.root))
        if elapsed is not None:
            entry["elapsed_s"] = round(elapsed, 3)
        if isinstance(payload, Mapping) and isinstance(payload.get("metrics"), Mapping):
            entry["metrics"] = dict(payload["metrics"])
        if telemetry is not None:
            snapshot = dict(telemetry)
            phases = dict(snapshot.get("phases") or {})
            phases["store"] = round(phases.get("store", 0.0) + store_s, 6)
            snapshot["phases"] = phases
            entry["telemetry"] = snapshot
            sim_s = snapshot.get("sim_s")
            if isinstance(sim_s, (int, float)):
                entry["sim_s"] = round(float(sim_s), 6)
        if probes is not None:
            self.probes_dir.mkdir(parents=True, exist_ok=True)
            probe_path = self.probe_path(spec)
            probe_path.write_text(canonical_json(probes), encoding="utf-8")
            entry["probes"] = str(probe_path.relative_to(self.root))
            entry["probe_summary"] = {
                "backend": probes.get("backend", ""),
                "series": len(probes.get("series") or []),
                "decisions_sampled": probes.get("decisions_sampled", 0),
                "flips": probes.get("flips", 0),
            }
        self._index[spec.spec_hash()] = entry
        if defer_index:
            self._append_journal(spec.spec_hash(), entry)
        else:
            self._write_index()
        return path

    # -- journal ----------------------------------------------------------------

    def _append_journal(self, spec_hash: str, entry: Mapping) -> None:
        line = json.dumps(
            {"hash": spec_hash, "entry": entry}, sort_keys=True, separators=(",", ":")
        )
        # One write syscall per line; concurrent appenders interleave whole
        # lines on POSIX O_APPEND semantics.
        with self.journal_path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self._journal_dirty = True

    def _read_journal(self):
        if not self.journal_path.exists():
            return
        for line in self.journal_path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                item = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn final line from a crashed writer
            if isinstance(item, dict) and "hash" in item and "entry" in item:
                yield str(item["hash"]), dict(item["entry"])

    def flush_journal(self) -> None:
        """Fold pending journal entries into ``index.json`` and drop the journal.

        Re-reads the journal from disk first, so entries appended by *other*
        writers sharing the store are folded in too, not silently dropped.
        The index is also rewritten when *this* store journaled entries but
        the journal file is gone — a concurrent writer's flush unlinked it —
        since those entries may exist only in our in-memory index.  A store
        that never journaled anything is left untouched (no directories are
        created for stores that never saw a deferred save).
        """
        if not self.journal_path.exists() and not self._journal_dirty:
            return
        for spec_hash, entry in self._read_journal():
            self._index.setdefault(spec_hash, entry)
        self._write_index()
        self._journal_dirty = False
        try:
            self.journal_path.unlink()
        except FileNotFoundError:
            pass

    # -- probes -----------------------------------------------------------------

    def probe_path(self, spec: RunSpec) -> pathlib.Path:
        """Where the probe sidecar for a spec lives."""
        return self.probes_dir / f"{spec.spec_hash()}.json"

    def has_probes(self, spec: RunSpec) -> bool:
        """Whether a probe sidecar exists for this exact spec."""
        return self.probe_path(spec).exists()

    def load_probes(self, spec: RunSpec) -> Dict:
        """Load the probe sidecar for a spec (KeyError if absent)."""
        if not self.has_probes(spec):
            raise KeyError(f"no stored probes for {spec.label()} ({spec.spec_hash()})")
        return json.loads(self.probe_path(spec).read_text(encoding="utf-8"))

    def iter_probe_snapshots(self) -> Iterator[Dict[str, object]]:
        """Yield ``(index entry + snapshot)`` dicts for every probe sidecar.

        Each yielded dict is the probe snapshot augmented with ``hash``,
        ``scenario``, ``params`` and ``backend`` from the index, so
        analysis code can attribute series to cells without re-deriving
        spec hashes.  Sidecars whose index entry vanished (foreign file)
        are skipped.
        """
        for spec_hash in sorted(self._index):
            entry = self._index[spec_hash]
            rel = entry.get("probes")
            if not rel:
                continue
            path = self.root / str(rel)
            if not path.exists():
                continue
            try:
                snapshot = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            snapshot["hash"] = spec_hash
            snapshot["scenario"] = entry.get("scenario", "?")
            snapshot["params"] = entry.get("params", {})
            snapshot["cell_backend"] = entry.get("backend", "")
            yield snapshot

    # -- audits -----------------------------------------------------------------

    def audit_path(self, spec: RunSpec) -> pathlib.Path:
        """Where the audit payload for a (flow) spec lives."""
        return self.audits_dir / f"{spec.spec_hash()}.json"

    def has_audit(self, spec: RunSpec) -> bool:
        """Whether a flow-vs-flit audit exists for this exact (flow) spec."""
        return spec.spec_hash() in self._audits and self.audit_path(spec).exists()

    def save_audit(
        self,
        flow_spec: RunSpec,
        flit_spec: RunSpec,
        deltas: Mapping[str, Mapping[str, float]],
    ) -> pathlib.Path:
        """Persist one flow-vs-flit audit, keyed by the flow spec's hash.

        The payload records both canonical spec forms and the per-metric
        deltas (see :func:`repro.campaign.executor.metric_deltas`); the
        ``audits.json`` index keeps the summary used by ``status``.
        """
        self.audits_dir.mkdir(parents=True, exist_ok=True)
        payload: Dict[str, object] = {
            "flow_spec": flow_spec.canonical(),
            "flit_spec": flit_spec.canonical(),
            "flow_hash": flow_spec.spec_hash(),
            "flit_hash": flit_spec.spec_hash(),
            "metrics": {k: dict(v) for k, v in deltas.items()},
        }
        path = self.audit_path(flow_spec)
        path.write_text(canonical_json(payload), encoding="utf-8")
        max_rel = max_abs_rel_delta(deltas)
        entry: Dict[str, object] = {
            "scenario": flow_spec.scenario,
            "params": flow_spec.params_dict,
            "flit_hash": flit_spec.spec_hash(),
            "metrics_compared": len(deltas),
            "audit": str(path.relative_to(self.root)),
        }
        if max_rel is not None:
            entry["max_abs_rel_delta"] = round(max_rel, 6)
        self._audits[flow_spec.spec_hash()] = entry
        self._audits = self._merge_write(self.audits_index_path, self._audits)
        return path

    def load_audit(self, spec: RunSpec) -> Dict:
        """Load the stored audit payload for a (flow) spec (KeyError if absent)."""
        if not self.has_audit(spec):
            raise KeyError(
                f"no stored audit for {spec.label()} ({spec.spec_hash()})"
            )
        return json.loads(self.audit_path(spec).read_text(encoding="utf-8"))

    def audit_index(self) -> Dict[str, Dict]:
        """A copy of the audit index (flow hash -> audit metadata)."""
        return {k: dict(v) for k, v in self._audits.items()}

    def audit_rows(self) -> List[Dict[str, object]]:
        """One row per stored audit, for the status table."""
        rows: List[Dict[str, object]] = []
        for flow_hash in sorted(self._audits):
            entry = self._audits[flow_hash]
            rows.append(
                {
                    "flow_hash": flow_hash,
                    "flit_hash": entry.get("flit_hash", "?"),
                    "scenario": entry.get("scenario", "?"),
                    "params": json.dumps(entry.get("params", {}), sort_keys=True),
                    "metrics_compared": entry.get("metrics_compared", 0),
                    "max_abs_rel_delta": entry.get("max_abs_rel_delta", ""),
                }
            )
        return rows

    # -- reporting --------------------------------------------------------------

    def iter_status_rows(self) -> Iterator[Dict[str, object]]:
        """Yield one row per stored run, lazily, in stable hash order.

        The streaming form of :meth:`status_rows`: consumers that write
        rows out as they go (the CSV export) never hold more than one row,
        which is what keeps larger-than-memory campaign exports flat.
        """
        for spec_hash in sorted(self._index):
            entry = self._index[spec_hash]
            row: Dict[str, object] = {
                "hash": spec_hash,
                "scenario": entry.get("scenario", "?"),
                "scale": entry.get("scale", "?"),
                "seed": entry.get("seed", ""),
                "params": json.dumps(entry.get("params", {}), sort_keys=True),
                "backend": entry.get("backend", ""),
                "routed_from": entry.get("routed_from", ""),
                "elapsed_s": entry.get("elapsed_s", ""),
                "sim_s": entry.get("sim_s", ""),
            }
            for name, value in sorted((entry.get("metrics") or {}).items()):
                row[f"metric.{name}"] = value
            yield row

    def status_rows(self) -> List[Dict[str, object]]:
        """One row per stored run, for status tables (materialized)."""
        return list(self.iter_status_rows())

    def csv_columns(self) -> List[str]:
        """The CSV header: base columns plus every metric column in use.

        Computed from the index metadata alone (metric *names*, not rows),
        so the export can stream without a first pass over full rows.
        """
        columns: List[str] = [
            "hash", "scenario", "scale", "seed", "params", "backend",
            "routed_from", "elapsed_s", "sim_s",
        ]
        metric_names = set()
        for entry in self._index.values():
            metric_names.update((entry.get("metrics") or {}).keys())
        columns.extend(f"metric.{name}" for name in sorted(metric_names))
        return columns

    def export_csv(self, path) -> pathlib.Path:
        """Write all stored runs (one row each, metrics flattened) as CSV.

        Rows stream straight from the index to the file one at a time —
        the export never materializes the result set, so store size is
        bounded by disk, not by this process's memory.
        """
        path = pathlib.Path(path)
        columns = self.csv_columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns, restval="")
            writer.writeheader()
            for row in self.iter_status_rows():
                writer.writerow(row)
        return path

    def timing_rows(self) -> List[Dict[str, object]]:
        """Per-phase latency aggregates over every stored telemetry snapshot.

        One row per (scenario, backend, phase) with count, p50/p95 (ms) and
        total seconds — the data behind ``repro campaign status --timings``.
        Entries without a ``telemetry`` key (old stores, untraced runs) are
        simply skipped.
        """
        groups: Dict[tuple, List[float]] = {}
        for entry in self._index.values():
            snapshot = entry.get("telemetry")
            if not isinstance(snapshot, Mapping):
                continue
            phases = snapshot.get("phases")
            if not isinstance(phases, Mapping):
                continue
            scenario = str(entry.get("scenario", "?"))
            backend = str(entry.get("backend", ""))
            for phase, duration in phases.items():
                try:
                    duration = float(duration)
                except (TypeError, ValueError):
                    continue
                groups.setdefault((scenario, backend, str(phase)), []).append(duration)
        rows: List[Dict[str, object]] = []
        for (scenario, backend, phase), durations in sorted(groups.items()):
            rows.append(
                {
                    "scenario": scenario,
                    "backend": backend,
                    "phase": phase,
                    "n": len(durations),
                    "p50_ms": round(percentile(durations, 50) * 1000.0, 3),
                    "p95_ms": round(percentile(durations, 95) * 1000.0, 3),
                    "total_s": round(sum(durations), 3),
                }
            )
        return rows

    # -- session telemetry -------------------------------------------------------

    @property
    def telemetry_dir(self) -> pathlib.Path:
        """Where campaign-lifecycle telemetry (dist timelines) lives."""
        return self.root / "telemetry"

    def save_session_telemetry(self, payload: Mapping) -> pathlib.Path:
        """Persist one campaign session's lifecycle telemetry.

        Used by the distributed coordinator for its per-cell lease
        timelines, heartbeat gaps and revocations — data that belongs to the *session*, not to
        any single cell.  Files are numbered, so repeated sessions against
        the same store accumulate instead of overwriting.
        """
        self.telemetry_dir.mkdir(parents=True, exist_ok=True)
        existing = sorted(self.telemetry_dir.glob("session-*.json"))
        path = self.telemetry_dir / f"session-{len(existing):04d}.json"
        path.write_text(canonical_json(payload), encoding="utf-8")
        return path

    def load_session_telemetry(self) -> List[Dict]:
        """All stored session telemetry payloads, in session order."""
        if not self.telemetry_dir.exists():
            return []
        payloads: List[Dict] = []
        for path in sorted(self.telemetry_dir.glob("session-*.json")):
            try:
                payloads.append(json.loads(path.read_text(encoding="utf-8")))
            except (OSError, json.JSONDecodeError):
                continue
        return payloads

    def summary(self) -> Dict[str, int]:
        """Stored-run counts per scenario."""
        counts: Dict[str, int] = {}
        for entry in self._index.values():
            name = entry.get("scenario", "?")
            counts[name] = counts.get(name, 0) + 1
        return dict(sorted(counts.items()))

    def family_rollups(self) -> List[Dict[str, object]]:
        """One aggregate row per scenario family, for ``campaign status``.

        Each row carries the run count plus the distinct scales, backends
        and seed count seen for that family, and total/median wall-clock
        seconds — enough to see at a glance which families dominate a
        store and whether a sweep covered every backend it meant to.
        """
        groups: Dict[str, List[Dict]] = {}
        for entry in self._index.values():
            groups.setdefault(str(entry.get("scenario", "?")), []).append(entry)
        rows: List[Dict[str, object]] = []
        for name in sorted(groups):
            entries = groups[name]
            elapsed = [
                float(e["elapsed_s"])
                for e in entries
                if isinstance(e.get("elapsed_s"), (int, float))
            ]
            rows.append(
                {
                    "scenario": name,
                    "runs": len(entries),
                    "scales": sorted(
                        {str(e["scale"]) for e in entries if e.get("scale")}
                    ),
                    "backends": sorted(
                        {str(e["backend"]) for e in entries if e.get("backend")}
                    ),
                    "seeds": len({e.get("seed") for e in entries}),
                    "elapsed_total_s": round(sum(elapsed), 3) if elapsed else 0.0,
                    "elapsed_p50_s": (
                        round(percentile(elapsed, 50), 3) if elapsed else 0.0
                    ),
                }
            )
        return rows
