"""Command-line runner of the campaign engine (the ``repro`` console script).

Every paper figure and table is a campaign scenario::

    repro campaign list --tag figure
    repro campaign run figure3 --reports           # one figure, report printed
    repro campaign run figures --backend flow --seed 1
    repro campaign status --store campaigns/       # includes the paper claims

Sweeps::

    repro campaign run all --workers 4 --store campaigns/
    repro campaign run pingpong-placement --set message_kib=4,64 --dry-run

``campaign run`` plans a sweep over the requested scenarios' parameter
grids, skips every run whose spec hash is already in the artifact store and
leases the rest, one cell at a time, to worker processes forked from the
coordinator (resumable: a killed campaign picks up from the store).

Across hosts::

    repro campaign run all --workers 2 --transport socket --bind 0.0.0.0:7077
    repro campaign worker --connect coordinator-host:7077   # on other hosts
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import Dict, List, Optional, Sequence, Tuple

#: Default artifact-store location for the campaign subcommands.
DEFAULT_STORE = pathlib.Path("campaigns")


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "campaign":
        return campaign_main(argv[1:])
    print(
        "usage: repro campaign {run,list,status,worker,trace,probe} ...\n"
        "the paper's figures are campaign scenarios, e.g.: "
        "repro campaign run figure3 --reports",
        file=sys.stderr,
    )
    return 2


def build_campaign_parser() -> argparse.ArgumentParser:
    """Parser for ``repro campaign ...`` (exposed for tests)."""
    from repro.model.base import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Plan, execute and inspect cached parallel scenario sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="plan and execute a campaign")
    run.add_argument(
        "scenarios",
        nargs="*",
        default=[],
        help="scenario names, 'all' (default), or 'figures'",
    )
    run.add_argument("--scale", choices=("smoke", "paper"), default="smoke")
    run.add_argument(
        "--backend",
        choices=BACKENDS,
        default="flit",
        help="network-model backend: cycle-accurate 'flit' or fast 'flow' "
        "(default: flit); backends hash into distinct cache keys",
    )
    run.add_argument(
        "--audit-fraction",
        type=float,
        default=0.0,
        metavar="F",
        help="fraction of flow cells to re-run on the flit backend as a "
        "fidelity audit (any positive value audits at least one cell; "
        "default: 0)",
    )
    run.add_argument("--seed", type=int, default=None, help="campaign master seed")
    run.add_argument("--workers", type=int, default=1, help="worker processes")
    run.add_argument(
        "--transport",
        choices=("local", "socket"),
        default="local",
        help="how workers reach the coordinator: 'local' (the default; "
        "workers forked from this process, each over a socketpair) or "
        "'socket' (TCP; spawns --workers local workers and also accepts "
        "external 'repro campaign worker --connect' processes on --bind)",
    )
    run.add_argument(
        "--bind",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="socket transport: coordinator listen address (port 0 picks an "
        "ephemeral port; printed at startup for external workers)",
    )
    run.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="revoke a worker's lease after this many seconds of silence "
        "and re-lease its cell (default: 30)",
    )
    run.add_argument(
        "--store",
        type=pathlib.Path,
        default=DEFAULT_STORE,
        help=f"artifact store directory (default: {DEFAULT_STORE}/)",
    )
    run.add_argument(
        "--no-store", action="store_true", help="run without caching artifacts"
    )
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="AXIS=V1,V2",
        help="override an axis grid (repeatable)",
    )
    run.add_argument(
        "--dry-run", action="store_true", help="print the plan, execute nothing"
    )
    run.add_argument(
        "--force", action="store_true", help="re-execute runs already in the store"
    )
    run.add_argument(
        "--csv", type=pathlib.Path, default=None, help="export the store as CSV"
    )
    run.add_argument(
        "--reports", action="store_true", help="print each run's report table"
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="enable telemetry for this campaign: per-cell phase/span "
        "snapshots land in the store next to elapsed_s (export with "
        "'repro campaign trace', aggregate with 'status --timings'); "
        "reaches every worker, external ones included "
        "(default: on when REPRO_TELEMETRY is set)",
    )
    run.add_argument(
        "--probes",
        action="store_true",
        help="enable the network flight recorder: per-link-class occupancy "
        "time series and a seeded sample of UGAL routing decisions land as "
        "probes/<hash>.json sidecars in the store (analyze with 'repro "
        "campaign probe'); samples every 256 cycles and audits 2%% of "
        "decisions; result payloads stay byte-identical; reaches every "
        "worker, external ones included (default: on when REPRO_PROBES is "
        "set)",
    )

    lst = sub.add_parser("list", help="list registered scenarios")
    lst.add_argument("--tag", default=None, help="only scenarios with this tag")

    worker = sub.add_parser(
        "worker",
        help="serve a distributed campaign coordinator (cell-leasing loop)",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="connect to a coordinator's socket transport (possibly on "
        "another host) and execute leased cells until shutdown",
    )
    worker.add_argument("--name", default=None, help="worker name (default: host:pid)")
    worker.add_argument(
        "--heartbeat",
        type=float,
        default=2.0,
        metavar="S",
        help="liveness ping interval while executing (default: 2)",
    )
    worker.add_argument(
        "--preload",
        default=None,
        metavar="MODULE",
        help="import this module before serving, so scenarios registered "
        "outside repro.campaign.scenarios are executable in this worker",
    )
    worker.add_argument(
        "--quiet", action="store_true", help="suppress per-cell log lines"
    )

    status = sub.add_parser("status", help="summarize an artifact store")
    status.add_argument("--store", type=pathlib.Path, default=DEFAULT_STORE)
    status.add_argument(
        "--csv", type=pathlib.Path, default=None, help="export the store as CSV"
    )
    status.add_argument(
        "--timings",
        action="store_true",
        help="aggregate stored telemetry into a per-phase latency table "
        "(p50/p95 per scenario x backend x phase; needs runs traced with "
        "'campaign run --trace')",
    )
    status.add_argument(
        "--interference",
        action="store_true",
        help="pool stored cluster-trace cells into per-routing-mode "
        "workload interference matrices (victim x aggressor mean slowdown)",
    )

    trace = sub.add_parser(
        "trace",
        help="export stored telemetry as Chrome trace_event JSON "
        "(chrome://tracing / Perfetto)",
    )
    trace.add_argument("--store", type=pathlib.Path, default=DEFAULT_STORE)
    trace.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="output file (default: <store>/trace.json)",
    )

    probe = sub.add_parser(
        "probe",
        help="analyze stored network-probe sidecars: congestion heatmaps, "
        "link hotspot ranking, phantom-congestion audit",
    )
    probe.add_argument("--store", type=pathlib.Path, default=DEFAULT_STORE)
    probe.add_argument(
        "--heatmap",
        choices=("group-time", "link-rank"),
        default="group-time",
        help="'group-time' renders mean metric per group per time bin; "
        "'link-rank' ranks link-class series hottest-first (default: "
        "group-time)",
    )
    probe.add_argument(
        "--metric",
        default="occupancy",
        help="series metric to analyze: occupancy, queue, stalled_links, "
        "nic_stall_ratio, nic_latency (default: occupancy)",
    )
    probe.add_argument(
        "--link-class",
        choices=("local", "global", "injection", "nic"),
        default=None,
        help="restrict to one link class (default: all fabric classes)",
    )
    probe.add_argument(
        "--csv",
        type=pathlib.Path,
        default=None,
        help="also write the group-time heatmap matrix as CSV",
    )
    return parser


def parse_override(text: str) -> Tuple[str, List[object]]:
    """Parse one ``--set axis=v1,v2`` item, coercing numeric values.

    Empty tokens are rejected with the offending position named — silently
    skipping them (the old behaviour) could leave an axis with no values
    and expand to a zero-cell grid with no hint why.
    """
    if "=" not in text:
        raise ValueError(f"expected AXIS=V1,V2 — got {text!r}")
    axis, _, raw = text.partition("=")
    if not axis:
        raise ValueError(f"override {text!r} names no axis (expected AXIS=V1,V2)")
    if not raw.strip():
        raise ValueError(
            f"override {text!r} lists no values for axis {axis!r} "
            "(expected AXIS=V1,V2)"
        )
    values: List[object] = []
    for position, token in enumerate(raw.split(","), start=1):
        token = token.strip()
        if not token:
            raise ValueError(
                f"override {text!r} has an empty value at position {position} "
                f"for axis {axis!r}"
            )
        values.append(_coerce(token))
    return axis, values


def _coerce(token: str) -> object:
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            continue
    if token.lower() in ("true", "false"):
        return token.lower() == "true"
    return token


def _resolve_scenarios(requested: Sequence[str]) -> List[str]:
    """Expand the 'all'/'figures' keywords (valid in any position) and dedupe."""
    from repro.campaign.registry import get_scenario, scenario_names

    if not requested:
        return list(scenario_names())
    names: List[str] = []
    for item in requested:
        if item == "all":
            expansion = scenario_names()
        elif item == "figures":
            expansion = scenario_names(tag="figure")
        else:
            get_scenario(item)  # raises with the known names on a typo
            expansion = (item,)
        for name in expansion:
            if name not in names:
                names.append(name)
    return names


def _parse_bind(text: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` bind address (port may be 0 for ephemeral)."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT — got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bind port {port_text!r} is not an integer") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"bind port {port} outside [0, 65535]")
    return host, port


def _worker_main(args, parser) -> int:
    """The ``repro campaign worker`` loop (runs until coordinator shutdown)."""
    from repro.campaign.dist import ProtocolError, serve_socket

    if args.heartbeat <= 0:
        parser.error("--heartbeat must be positive")
    if args.preload:
        import importlib

        try:
            importlib.import_module(args.preload)
        except ImportError as exc:
            parser.error(f"cannot import --preload module {args.preload!r}: {exc}")
    # --quiet keeps its meaning (no per-cell lines); otherwise the worker
    # logs through the structured repro.telemetry logger (REPRO_LOG=json|text).
    log = (lambda text: None) if args.quiet else None
    try:
        host, port = _parse_bind(args.connect)
    except ValueError as exc:
        parser.error(str(exc))
    if port == 0:
        parser.error("--connect needs the coordinator's concrete port")
    try:
        executed = serve_socket(
            host, port, name=args.name, heartbeat_s=args.heartbeat, log=log
        )
    except (ProtocolError, ConnectionError, OSError, ValueError) as exc:
        # A coordinator killed mid-frame (ProtocolError) or gone when this
        # worker sends (OSError) is the same event as a refused connection:
        # the coordinator is gone.
        import logging

        from repro.telemetry.log import get_logger, log_event

        log_event(
            get_logger("campaign.dist.worker"),
            "worker.connection_lost",
            level=logging.WARNING,
            error=str(exc),
        )
        return 3
    return 0 if executed >= 0 else 1


def campaign_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``campaign`` subcommands."""
    parser = build_campaign_parser()
    args = parser.parse_args(argv)

    from repro.campaign import (
        ArtifactStore,
        Coordinator,
        DistOptions,
        ensure_builtin_scenarios,
        plan_campaign,
        run_audits,
        select_audit_pairs,
    )
    from repro.campaign.plan import DEFAULT_SEED
    from repro.campaign.registry import ScenarioError, all_scenarios

    ensure_builtin_scenarios()

    if args.command == "worker":
        return _worker_main(args, parser)

    if args.command == "list":
        from repro.analysis.reporting import Table

        table = Table(
            title="registered scenarios",
            columns=["name", "grid", "axes", "tags", "description"],
        )
        for spec in all_scenarios():
            if args.tag is not None and args.tag not in spec.tags:
                continue
            axes = ", ".join(
                f"{axis}({len(values)})" for axis, values in sorted(spec.axes.items())
            )
            table.add_row(
                spec.name,
                spec.grid_size(),
                axes or "-",
                ",".join(spec.tags) or "-",
                spec.description,
            )
        print(table.render())
        return 0

    if args.command == "trace":
        from repro.telemetry.export import chrome_trace, trace_categories, write_chrome_trace

        store = ArtifactStore(args.store)
        output = args.output if args.output is not None else store.root / "trace.json"
        trace = chrome_trace(store)
        spans = sum(1 for ev in trace["traceEvents"] if ev.get("ph") == "X")
        if not spans:
            print(
                f"no telemetry in {store.root} — run campaigns with "
                "'repro campaign run --trace' first",
                file=sys.stderr,
            )
            return 2
        path = write_chrome_trace(store, output)
        cats = ", ".join(trace_categories(trace))
        print(f"wrote {path} ({spans} span(s); layers: {cats})")
        print("load it in chrome://tracing or https://ui.perfetto.dev")
        return 0

    if args.command == "probe":
        from repro.analysis import congestion

        store = ArtifactStore(args.store)
        frames = congestion.load_probe_frames(store)
        if not frames:
            print(
                f"no probe sidecars in {store.root} — run campaigns with "
                "'repro campaign run --probes' first",
                file=sys.stderr,
            )
            return 2
        print(
            f"store: {store.root} — {len(frames)} probed cell(s), "
            f"{sum(len(f.get('series') or []) for f in frames)} series"
        )
        print()
        if args.heatmap == "group-time":
            heatmap = congestion.group_time_heatmap(
                frames, metric=args.metric, link_class=args.link_class
            )
            if heatmap is None:
                print(
                    f"no series for metric {args.metric!r}"
                    + (f" in class {args.link_class!r}" if args.link_class else ""),
                    file=sys.stderr,
                )
                return 2
            print(congestion.render_heatmap(heatmap))
            if args.csv is not None:
                args.csv.parent.mkdir(parents=True, exist_ok=True)
                args.csv.write_text(
                    congestion.heatmap_csv(heatmap), encoding="utf-8"
                )
                print(f"wrote {args.csv}")
        else:
            rows = congestion.link_rank(frames, metric=args.metric, top=16)
            if not rows:
                print(f"no series for metric {args.metric!r}", file=sys.stderr)
                return 2
            print(congestion.render_link_rank(rows, args.metric))
        summary = congestion.phantom_summary(frames)
        if summary["decisions_seen"]:
            print()
            print(congestion.render_phantom(summary))
        jobs = congestion.job_alignment(store, frames, metric=args.metric)
        if jobs:
            print()
            print(congestion.render_job_alignment(jobs, args.metric))
        return 0

    if args.command == "status":
        store = ArtifactStore(args.store)
        from repro.analysis.claims import claim_rows, render_claims
        from repro.analysis.reporting import campaign_metrics_table

        if args.timings:
            from repro.analysis.reporting import Table

            rows = store.timing_rows()
            if not rows:
                print(
                    f"no telemetry in {store.root} — run campaigns with "
                    "'repro campaign run --trace' first",
                    file=sys.stderr,
                )
                return 2
            table = Table(
                title=f"phase timings — {store.root}",
                columns=["scenario", "backend", "phase", "n", "p50 ms", "p95 ms", "total s"],
            )
            for row in rows:
                table.add_row(
                    row["scenario"], row["backend"], row["phase"], row["n"],
                    row["p50_ms"], row["p95_ms"], row["total_s"],
                )
            print(table.render())
            dropped = sum(
                int(snapshot.get("events_dropped") or 0)
                for snapshot in (
                    entry.get("telemetry") for entry in store.index().values()
                )
                if isinstance(snapshot, dict)
            )
            if dropped:
                print(
                    f"events dropped: {dropped} span event(s) hit the "
                    "tracer's per-cell cap — phase totals are exact, the "
                    "Chrome trace is truncated for those cells"
                )
            return 0

        if args.interference:
            from repro.analysis.interference import store_interference_report

            report = store_interference_report(store)
            if report is None:
                print(
                    f"no cluster-trace cells in {store.root} — run the "
                    "'cluster-trace' scenario first",
                    file=sys.stderr,
                )
                return 2
            print(report)
            return 0

        print(f"store: {store.root} — {len(store)} stored run(s)")
        for rollup in store.family_rollups():
            scales = ",".join(rollup["scales"]) or "-"
            backends = ",".join(rollup["backends"]) or "-"
            print(
                f"  {rollup['scenario']}: {rollup['runs']} run(s)  "
                f"[scale {scales}; backend {backends}; "
                f"{rollup['seeds']} seed(s); "
                f"{rollup['elapsed_total_s']:.1f}s total, "
                f"p50 {rollup['elapsed_p50_s']:.1f}s]"
            )
        rows = store.status_rows()
        if rows:
            print()
            print(campaign_metrics_table(rows))
        claims = claim_rows(store)
        if claims:
            print()
            print(render_claims(claims))
        audit_rows = store.audit_rows()
        if audit_rows:
            print()
            print(f"audits: {len(audit_rows)} flow-vs-flit delta(s)")
            for row in audit_rows:
                rel = row["max_abs_rel_delta"]
                if rel != "":
                    rel_text = f"max |rel| {rel}"
                elif row["metrics_compared"]:
                    rel_text = (
                        f"{row['metrics_compared']} metric(s), absolute deltas only"
                    )
                else:
                    rel_text = "no shared metrics"
                print(
                    f"  {row['flow_hash']} vs {row['flit_hash']}  "
                    f"{row['scenario']}{row['params']}  ({rel_text})"
                )
        if args.csv is not None:
            path = store.export_csv(args.csv)
            print(f"wrote {path}")
        return 0

    # -- run -----------------------------------------------------------------
    if args.workers < 1 and not (args.transport == "socket" and args.workers == 0):
        # --workers 0 is meaningful only on the socket transport: listen and
        # wait for external `repro campaign worker --connect` processes.
        parser.error("--workers must be >= 1 (0 allowed with --transport socket)")
    if args.no_store and args.csv is not None:
        parser.error("--csv exports the artifact store and cannot combine with --no-store")
    if args.dry_run and args.csv is not None:
        parser.error("--csv exports executed results and cannot combine with --dry-run")
    if not 0.0 <= args.audit_fraction <= 1.0:
        parser.error("--audit-fraction must be within [0, 1]")
    from repro.telemetry import PROBES, TELEMETRY, set_instrumentation

    # The flags only switch on; without them the environment defaults, read
    # at import, hold.  Every lease carries them to the workers.
    trace = args.trace or TELEMETRY.enabled
    probes = args.probes or PROBES.enabled
    set_instrumentation(trace, probes)
    store = None if args.no_store else ArtifactStore(args.store)
    try:
        names = _resolve_scenarios(args.scenarios)
        overrides: Dict[str, List[object]] = {}
        for item in args.overrides:
            axis, values = parse_override(item)
            if axis in overrides:
                raise ValueError(
                    f"axis {axis!r} overridden twice — use --set {axis}=v1,v2 "
                    "for multiple values"
                )
            overrides[axis] = values
        from repro.telemetry import timed

        with timed("plan", backend=args.backend, scale=args.scale):
            plan = plan_campaign(
                names,
                scale=args.scale,
                seed=args.seed if args.seed is not None else DEFAULT_SEED,
                overrides=overrides,
                name="+".join(names) if len(names) <= 3 else f"{len(names)}-scenarios",
                backend=args.backend,
            )
    except (ScenarioError, ValueError) as exc:
        parser.error(str(exc))

    if args.dry_run:
        print(plan.describe())
        audit_pairs = select_audit_pairs(plan, args.audit_fraction)
        if audit_pairs:
            print(f"audits: {len(audit_pairs)} flit re-run(s) scheduled")
            for flow_spec, twin in audit_pairs:
                print(f"  {flow_spec.spec_hash()} -> {twin.spec_hash()}  {twin.label()}")
        if store is not None:
            cached = sum(1 for spec in plan if store.has(spec))
            print(f"cache: {cached}/{len(plan)} already stored in {store.root}")
        return 0

    def progress(done: int, total: int, record) -> None:
        if record.error:
            status = f"FAILED: {record.error}"
        elif record.cached:
            status = "cached"
        else:
            status = f"{record.elapsed_s:.1f} s"
        print(f"[{done}/{total}] {record.spec.spec_hash()}  {record.spec.label()}  ({status})")
        if args.reports and record.ok and record.report:
            print(record.report)

    try:
        host, port = _parse_bind(args.bind)
        options = DistOptions(
            workers=args.workers,
            transport=args.transport,
            bind_host=host,
            bind_port=port,
            lease_timeout_s=args.lease_timeout,
        )
    except ValueError as exc:
        parser.error(str(exc))
    coordinator = Coordinator(
        plan, store=store, options=options, progress=progress, force=args.force
    )
    if args.transport == "socket":
        bound_host, bound_port = coordinator.address
        print(
            f"coordinator listening on {bound_host}:{bound_port} — attach "
            f"more workers with: repro campaign worker "
            f"--connect {bound_host}:{bound_port}"
        )
    result = coordinator.run()
    if args.audit_fraction > 0.0:
        run_audits(plan, result, store, args.audit_fraction, force=args.force)
    for audit in result.audits:
        if not audit.ok:
            print(
                f"[audit] {audit.spec.spec_hash()}  {audit.twin.label()}  "
                f"FAILED: {audit.record.error}"
            )
            continue
        rel = audit.max_abs_rel()
        if rel is not None:
            rel_text = f"max |rel delta| {rel:.4f}"
        elif audit.deltas:
            # Metrics were compared but every flit value was zero, so no
            # relative deviation exists — only absolute deltas.
            rel_text = f"{len(audit.deltas)} metric(s), absolute deltas only"
        else:
            rel_text = "no shared metrics"
        status = "cached" if audit.record.cached else f"{audit.record.elapsed_s:.1f} s"
        print(
            f"[audit] {audit.spec.spec_hash()} vs {audit.twin.spec_hash()}  "
            f"{audit.twin.label()}  ({status}, {rel_text})"
        )
    print(result.summary())
    if store is not None:
        print(f"artifacts: {store.root}")
        if args.csv is not None:
            print(f"wrote {store.export_csv(args.csv)}")
        if trace:
            from repro.telemetry import snapshot_of

            # Campaign-level phases (plan, the run loop's own spans) become a
            # session payload next to any dist-session telemetry.
            snapshot = snapshot_of(TELEMETRY.tracer, TELEMETRY.metrics)
            snapshot["kind"] = "campaign"
            store.save_session_telemetry(snapshot)
            traced = sum(
                1 for entry in store.index().values() if "telemetry" in entry
            )
            print(
                f"telemetry: {traced} traced cell(s) in store — "
                f"'repro campaign trace --store {store.root}' exports the "
                "Chrome trace, 'repro campaign status --timings' aggregates"
            )
        if probes:
            probed = sum(
                1 for entry in store.index().values() if "probes" in entry
            )
            print(
                f"probes: {probed} probed cell(s) in store — "
                f"'repro campaign probe --store {store.root}' renders the "
                "congestion heatmap and phantom-congestion audit"
            )
    return 1 if result.failed else 0


def console_main() -> int:  # pragma: no cover - thin wrapper around main()
    """Entry point for the ``repro`` console script (SIGPIPE-friendly)."""
    try:
        return main()
    except BrokenPipeError:  # e.g. `repro campaign list | head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the shell convention


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in docs
    sys.exit(console_main())
