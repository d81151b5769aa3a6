"""Shared infrastructure for the per-figure experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.allocation.job import JobAllocation
from repro.config import SimulationConfig, TopologyConfig
from repro.core.policy import (
    ApplicationAwarePolicy,
    RoutingPolicy,
    default_policy,
    high_bias_policy,
)
from repro.model.base import NetworkModel, build_network_model
from repro.mpi.job import MpiJob
from repro.noise.background import BackgroundTraffic, NoiseLevel
from repro.workloads.base import Workload, WorkloadResult


@dataclass(frozen=True)
class ExperimentScale:
    """Controls how large the simulated experiments are.

    The paper's measurements used up to 1024 nodes of Piz Daint; a pure-Python
    packet-level simulation cannot reach that size in reasonable time, so each
    experiment is run at a reduced — but structurally equivalent — scale.
    """

    name: str
    #: Topology of the simulated machine.
    num_groups: int
    chassis_per_group: int
    blades_per_chassis: int
    nodes_per_router: int
    #: Nodes used by the measured job in the "large" experiments (Fig. 8).
    large_job_nodes: int
    #: Nodes used by the "small system" experiments (Fig. 9, Cori-like).
    small_job_nodes: int
    #: Nodes used by the application experiments (Fig. 10).
    app_job_nodes: int
    #: Measured iterations per configuration.
    iterations: int
    #: Repetitions of the ping-pong style experiments.
    pingpong_repetitions: int
    #: Cross-traffic level applied while measuring.
    noise_level: NoiseLevel
    #: Message-size scale factor applied to workload inputs (1.0 = as listed).
    message_scale: float = 1.0
    #: NIC packetization used by the experiments.  The hardware uses 64-byte
    #: packets of 16-byte flits; the larger experiments coalesce packets
    #: (keeping the packet/flit ratio) so the pure-Python simulator moves
    #: fewer packets per byte — a pure simulation-cost knob.
    packet_payload_bytes: int = 64
    flit_payload_bytes: int = 16
    seed: int = 2019
    #: Network-model backend the experiments run on (``flit`` or ``flow``).
    backend: str = "flit"

    # -- presets -----------------------------------------------------------------

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """Tiny configuration used by the unit/integration tests."""
        return cls(
            name="smoke",
            num_groups=3,
            chassis_per_group=2,
            blades_per_chassis=2,
            nodes_per_router=2,
            large_job_nodes=8,
            small_job_nodes=6,
            app_job_nodes=8,
            iterations=2,
            pingpong_repetitions=6,
            noise_level=NoiseLevel.LIGHT,
            message_scale=0.25,
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """Benchmark configuration (reduced-scale stand-in for the paper runs)."""
        return cls(
            name="paper",
            num_groups=5,
            chassis_per_group=3,
            blades_per_chassis=8,
            nodes_per_router=4,
            large_job_nodes=32,
            small_job_nodes=16,
            app_job_nodes=32,
            iterations=3,
            pingpong_repetitions=25,
            noise_level=NoiseLevel.MODERATE,
            message_scale=1.0,
            packet_payload_bytes=256,
            flit_payload_bytes=64,
        )

    @classmethod
    def preset(cls, name: str) -> "ExperimentScale":
        """Look up a preset by name — the form used by campaign run specs."""
        value = name.lower()
        if value == "smoke":
            return cls.smoke()
        if value == "paper":
            return cls.paper()
        raise ValueError(f"unknown scale preset {name!r} (use 'smoke' or 'paper')")

    # -- derived -------------------------------------------------------------------

    def topology(self) -> TopologyConfig:
        """The topology configuration for this scale."""
        return TopologyConfig(
            num_groups=self.num_groups,
            chassis_per_group=self.chassis_per_group,
            blades_per_chassis=self.blades_per_chassis,
            nodes_per_router=self.nodes_per_router,
            global_links_per_router=max(
                1,
                -(-(self.num_groups - 1) // (self.chassis_per_group * self.blades_per_chassis)),
            ),
        )

    def simulation_config(self, seed_offset: int = 0) -> SimulationConfig:
        """Full simulation configuration for this scale."""
        config = SimulationConfig(
            topology=self.topology(),
            seed=self.seed + seed_offset,
            backend=self.backend,
        )
        return config.with_nic(
            packet_payload_bytes=self.packet_payload_bytes,
            flit_payload_bytes=self.flit_payload_bytes,
        )

    def scaled_size(self, size_bytes: int) -> int:
        """Apply the message-size scale factor (minimum 8 bytes)."""
        return max(8, int(size_bytes * self.message_scale))

    def with_seed(self, seed: int) -> "ExperimentScale":
        """Copy with a different seed (different allocation / noise draw)."""
        return replace(self, seed=seed)

    def with_backend(self, backend: str) -> "ExperimentScale":
        """Copy selecting a different network-model backend."""
        return replace(self, backend=backend)


def build_network(scale: ExperimentScale, seed_offset: int = 0) -> NetworkModel:
    """A fresh substrate for one experiment run (backend per the scale)."""
    return build_network_model(scale.simulation_config(seed_offset))


def policy_factories(config: SimulationConfig) -> Dict[str, Callable[[], RoutingPolicy]]:
    """The three routing configurations compared in Figures 8–10."""
    return {
        "Default": default_policy,
        "HighBias": high_bias_policy,
        "AppAware": lambda: ApplicationAwarePolicy(config.nic),
    }


@dataclass
class PolicyComparison:
    """Results of one workload under each routing policy (same allocation)."""

    workload: str
    parameters: Dict[str, object]
    allocation: str
    results: Dict[str, WorkloadResult] = field(default_factory=dict)

    def normalized_medians(self, baseline: str = "Default") -> Dict[str, float]:
        """Median iteration time of each policy / median of the baseline."""
        base = self.results[baseline].median_time()
        return {name: res.median_time() / base for name, res in self.results.items()}

    def best_policy(self) -> str:
        """The policy with the lowest median iteration time."""
        return min(self.results, key=lambda name: self.results[name].median_time())

    def app_aware_fraction_default(self) -> Optional[float]:
        """% of traffic the AppAware policy sent with the Default family."""
        result = self.results.get("AppAware")
        if result is None:
            return None
        return result.default_traffic_fraction


def compare_policies(
    scale: ExperimentScale,
    allocation: JobAllocation,
    workload_factory: Callable[[], Workload],
    policies: Optional[Sequence[str]] = None,
    noise_level: Optional[NoiseLevel] = None,
    seed_offset: int = 0,
) -> PolicyComparison:
    """Run one workload under each routing policy on the *same* allocation.

    A fresh network (same seed → same wiring, same background-traffic
    placement) is built per policy so that no state leaks between runs; the
    allocation is fixed across policies, following the methodology rule of
    Section 3.1.
    """
    level = noise_level if noise_level is not None else scale.noise_level
    sample = workload_factory()
    comparison = PolicyComparison(
        workload=sample.name,
        parameters=dict(sample.parameters),
        allocation=allocation.name,
    )
    config = scale.simulation_config(seed_offset)
    factories = policy_factories(config)
    selected = policies or list(factories)
    for policy_name in selected:
        factory = factories[policy_name]
        network = build_network_model(config)
        noise = BackgroundTraffic.for_level(
            network, list(allocation), level, name=f"noise-{policy_name}"
        )
        if noise is not None:
            noise.start()
        job = MpiJob(
            network,
            list(allocation),
            policy_factory=factory,
            name=f"{sample.name}-{policy_name}",
        )
        workload = workload_factory()
        comparison.results[policy_name] = workload.run(job)
        if noise is not None:
            noise.stop()
    return comparison
