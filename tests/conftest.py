"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig, TopologyConfig
from repro.network.network import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.topology.dragonfly import DragonflyTopology


@pytest.fixture
def tiny_config() -> SimulationConfig:
    """Smallest configuration exercising all three link tiers (2 groups)."""
    return SimulationConfig.tiny()


@pytest.fixture
def small_config() -> SimulationConfig:
    """The default 4-group configuration."""
    return SimulationConfig.small()


@pytest.fixture
def tiny_topology(tiny_config) -> DragonflyTopology:
    """Topology object for the tiny configuration."""
    return DragonflyTopology(tiny_config.topology)


@pytest.fixture
def small_topology(small_config) -> DragonflyTopology:
    """Topology object for the small configuration."""
    return DragonflyTopology(small_config.topology)


@pytest.fixture
def tiny_network(tiny_config) -> Network:
    """A fully wired tiny network."""
    return Network(tiny_config)


@pytest.fixture
def small_network(small_config) -> Network:
    """A fully wired small network."""
    return Network(small_config)


@pytest.fixture
def simulator() -> Simulator:
    """A fresh heap simulator (the calendar engine's base class)."""
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    """A deterministic random-stream registry."""
    return RandomStreams(12345)
