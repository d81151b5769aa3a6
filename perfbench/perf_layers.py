"""What the traced run wraps in each ``src/repro`` layer, and its metrics.

Each layer's self time is the time of its own spans minus the spans they
caused: ``network.link.self_s`` is link work alone, not the routing
decision a link asks for while it sends.  Simulator event callbacks that no
probe covers are charged to the simulator (``sim.step.self_s``).  The
scheduled callbacks of links, NICs, the flow model and MPI jobs are
wrapped along with the public entry points, because the simulator calls
them directly.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List

from perf_trace import Probe, Stat, Tracer

#: Simulator entry points: the first call in a part ends its set-up.
SIM_ENTRY_POINTS = (
    "repro.sim.engine:Simulator.run",
    "repro.sim.engine:Simulator.step",
    "repro.sim.calendar:CalendarSimulator.step",
)


@dataclass
class Capture:
    """Objects and counts the traced operation's probes collect."""

    sims: list = field(default_factory=list)
    flit_networks: list = field(default_factory=list)
    engines: list = field(default_factory=list)
    pairs: set = field(default_factory=set)
    peak_flows: int = 0

    def see_flows(self, count: int) -> None:
        self.peak_flows = max(self.peak_flows, count)


def _each(module: str, cls: str, *methods: str) -> tuple:
    return tuple(f"{module}:{cls}.{m}" for m in methods)


def layer_probes(capture: Capture) -> List[Probe]:
    """The probes of the traced run: every layer's entry points."""
    link = "repro.network.link", "Link"
    flow = "repro.model.flow.network", "FlowNetwork"
    engines = [("repro.model.flow.vectorized", "VectorizedFairShareEngine"),
               ("repro.model.flow.engine", "ReferenceFairShareEngine")]

    def solver(*methods):
        return sum((_each(*engine, *methods) for engine in engines), ())

    mpi = _each("repro.mpi.job", "MpiJob", "_advance", "_network_send",
                "_intra_node_transfer", "_match_delivery", "post_recv", "post_compute")
    scheduler = "repro.cluster.scheduler", "ClusterScheduler"
    return [
        Probe("sim.init", "sim", ("repro.sim.engine:Simulator.__init__",),
              lambda args, _: capture.sims.append(args[0])),
        Probe("sim.run", "sim", SIM_ENTRY_POINTS[:1]),
        Probe("sim.step", "sim", SIM_ENTRY_POINTS[1:]),
        Probe("network.init", "network", ("repro.network.network:Network.__init__",),
              lambda args, _: capture.flit_networks.append(args[0])),
        Probe("network.send", "network", ("repro.network.network:Network.send",)),
        Probe("network.link.enqueue", "network.link", _each(*link, "enqueue")),
        Probe("network.link.return_credits", "network.link", _each(*link, "return_credits")),
        Probe("network.link.events", "network.link",
              _each(*link, "_retry", "_transmit_done", "_credit_wake")),
        Probe("network.router.packet_arrived", "network.router",
              _each("repro.network.router", "Router", "packet_arrived")),
        Probe("network.nic.submit", "network.nic", _each("repro.network.nic", "Nic", "submit")),
        Probe("network.nic.events", "network.nic",
              _each("repro.network.nic", "Nic", "packet_ejected", "record_stall")),
        Probe("routing.ugal.select", "routing.ugal",
              _each("repro.routing.ugal", "UgalSelector", "select")),
        Probe("topology.paths", "topology.paths",
              _each("repro.topology.paths", "PathSampler",
                    "minimal", "nonminimal", "all_minimal", "minimal_hops"),
              lambda args, _: capture.pairs.add((args[1], args[2]))),
        Probe("topology.build", "topology.build",
              _each("repro.topology.dragonfly", "DragonflyTopology", "__init__")),
        Probe("model.flow.send", "model.flow", _each(*flow, "send")),
        Probe("model.flow.events", "model.flow",
              _each(*flow, "_resolve", "_on_completion", "_sub_flow_arrived", "_sub_flow_acked")),
        Probe("model.flow.solo_solve", "model.flow.solo_solve",
              _each("repro.model.flow.solver", "FairShareSolver", "solve")),
        Probe("model.flow.solver.init", "model.flow.solver", solver("__init__"),
              lambda args, _: capture.engines.append(args[0])),
        Probe("model.flow.solver.solve", "model.flow.solver", solver("solve")),
        Probe("model.flow.solver.add_flow", "model.flow.solver", solver("add_flow"),
              lambda args, _: capture.see_flows(len(args[0]))),
        Probe("model.flow.solver.remove_flow", "model.flow.solver", solver("remove_flow")),
        Probe("model.flow.solver.other", "model.flow.solver",
              solver("advance", "completion_horizon", "drained")),
        Probe("mpi.post_send", "mpi", _each("repro.mpi.job", "MpiJob", "post_send")),
        Probe("mpi.events", "mpi", mpi + ("repro.mpi.request:Request.complete",)),
        Probe("cluster.events", "cluster",
              _each(*scheduler, "_arrive", "_admit_ready", "_start_job", "_job_done")),
        Probe("cluster.baseline", "cluster.baseline", _each(*scheduler, "_isolated_cycles")),
        Probe("allocation.allocate", "allocation", ("repro.allocation.policies:allocate",)),
        Probe("campaign.store.save", "campaign.store",
              _each("repro.campaign.store", "ArtifactStore", "save")),
    ]


def merged(values: List[Dict[str, float]]) -> Dict[str, float]:
    """Mean of each key over the parts that report it."""
    keys = sorted({k for v in values for k in v})
    return {k: statistics.fmean(v[k] for v in values if k in v) for k in keys}


def layer_metrics(tracer: Tracer, capture: Capture, parts: list,
                  traced_cpu: float, untraced_cpu: float) -> Dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``parts`` are the operation's checked results; ``traced_cpu`` and
    ``untraced_cpu`` its run CPU with and without the probes.
    """
    def stat(name: str) -> Stat:
        return tracer.stats.get(name, Stat())

    solver: Dict[str, int] = {}
    for engine in capture.engines:
        for key, value in engine.stats.items():
            solver[key] = solver.get(key, 0) + value
    path_calls = stat("topology.paths").calls
    sim_cycles = float(sum(sim.now for sim in capture.sims))
    incremental, aborts = solver.get("incremental", 0), solver.get("aborts", 0)
    metrics = {
        "sim.events": float(sum(sim.events_executed for sim in capture.sims)),
        "sim.sim_cycles": sim_cycles,
        "sim.cycles_per_cpu_s": sim_cycles / untraced_cpu,
        "network.link.credits_returned": float(
            sum(n.total_credits_returned() for n in capture.flit_networks)),
        "network.link.flits_traversed": float(
            sum(n.total_flits_traversed() for n in capture.flit_networks)),
        "topology.paths.distinct_pair_ratio": len(capture.pairs) / path_calls if path_calls else 0.0,
        "topology.build_s": stat("topology.build").total_s,
        "model.flow.peak_flows": float(capture.peak_flows),
        "model.flow.solver.incremental_hit_ratio": (
            incremental / (incremental + aborts) if incremental + aborts else 0.0),
        "mpi.messages": float(stat("mpi.post_send").calls),
        "cluster.baseline_s": stat("cluster.baseline").total_s,
        "allocation.machine_full": float(stat("allocation.allocate").raised),
        "campaign.store.save_s": stat("campaign.store.save").total_s,
        "trace.overhead_frac": traced_cpu / untraced_cpu - 1.0,
    }
    for name in ("network.send", "network.link.enqueue", "network.router.packet_arrived",
                 "network.nic.submit", "routing.ugal.select", "topology.paths",
                 "topology.build", "model.flow.send", "model.flow.solo_solve",
                 "model.flow.solver.solve", "model.flow.solver.add_flow",
                 "model.flow.solver.remove_flow", "allocation.allocate",
                 "campaign.store.save"):
        metrics[f"{name}.calls"] = float(stat(name).calls)
    for layer in ("network.link", "network.router", "network.nic", "routing.ugal",
                  "topology.paths", "model.flow", "model.flow.solo_solve",
                  "model.flow.solver", "mpi", "allocation"):
        metrics[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    metrics["sim.step.self_s"] = tracer.layer_self_s("sim")
    for key in ("full", "incremental", "skipped", "aborts", "rounds", "flows_touched"):
        metrics[f"model.flow.solver.{key}"] = float(solver.get(key, 0))
    metrics.update(merged([part.out for part in parts]))
    metrics.update(merged([part.layer for part in parts]))
    return metrics
