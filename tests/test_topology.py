"""Tests for the Dragonfly topology, geometry and path sampling."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import TopologyConfig
from repro.topology.dragonfly import DragonflyTopology, LinkId, LinkKind
from repro.topology.geometry import (
    NodeCoord,
    RouterCoord,
    group_of_node,
    nodes_of_router,
    router_of_node,
)
import repro.topology.paths as paths_module
from repro.topology.paths import PathSampler, PathTable, hop_count_minimal


class TestGeometry:
    def test_router_flat_roundtrip(self, small_config):
        topo = small_config.topology
        for rid in range(topo.num_routers):
            coord = RouterCoord.from_flat(rid, topo)
            assert coord.flat(topo) == rid

    def test_node_flat_roundtrip(self, small_config):
        topo = small_config.topology
        for nid in range(topo.num_nodes):
            coord = NodeCoord.from_flat(nid, topo)
            assert coord.flat(topo) == nid

    def test_router_out_of_range(self, small_config):
        with pytest.raises(ValueError):
            RouterCoord.from_flat(10_000, small_config.topology)

    def test_node_out_of_range(self, small_config):
        with pytest.raises(ValueError):
            NodeCoord.from_flat(-1, small_config.topology)

    def test_router_of_node(self, small_config):
        topo = small_config.topology
        assert router_of_node(0, topo) == 0
        assert router_of_node(topo.nodes_per_router, topo) == 1

    def test_nodes_of_router(self, small_config):
        topo = small_config.topology
        nodes = list(nodes_of_router(2, topo))
        assert len(nodes) == topo.nodes_per_router
        assert all(router_of_node(n, topo) == 2 for n in nodes)

    def test_group_of_node(self, small_config):
        topo = small_config.topology
        last_node = topo.num_nodes - 1
        assert group_of_node(last_node, topo) == topo.num_groups - 1

    def test_labels(self, small_config):
        topo = small_config.topology
        assert RouterCoord.from_flat(0, topo).label() == "g0-c0-b0"
        assert NodeCoord.from_flat(0, topo).label() == "g0-c0-b0-n0"

    def test_same_chassis_and_blade_slot(self):
        a = RouterCoord(0, 1, 2)
        assert a.same_chassis(RouterCoord(0, 1, 3))
        assert not a.same_chassis(RouterCoord(0, 2, 2))
        assert a.same_blade_slot(RouterCoord(0, 0, 2))
        assert not a.same_blade_slot(RouterCoord(1, 1, 2))


class TestDragonflyStructure:
    def test_validate_passes(self, small_topology):
        small_topology.validate()

    def test_green_links_within_chassis(self, small_topology):
        topo = small_topology
        cfg = topo.config
        for rid in range(cfg.num_routers):
            greens = [
                n for n, kind in topo.neighbors(rid).items() if kind == LinkKind.GREEN
            ]
            assert len(greens) == cfg.blades_per_chassis - 1
            for neighbor in greens:
                assert topo.chassis_of_router[neighbor] == topo.chassis_of_router[rid]
                assert topo.group_of_router[neighbor] == topo.group_of_router[rid]

    def test_black_links_within_blade_slot(self, small_topology):
        topo = small_topology
        cfg = topo.config
        for rid in range(cfg.num_routers):
            blacks = [
                n for n, kind in topo.neighbors(rid).items() if kind == LinkKind.BLACK
            ]
            assert len(blacks) == cfg.chassis_per_group - 1
            for neighbor in blacks:
                assert topo.blade_of_router[neighbor] == topo.blade_of_router[rid]
                assert topo.group_of_router[neighbor] == topo.group_of_router[rid]

    def test_links_are_bidirectional(self, small_topology):
        topo = small_topology
        for rid in range(topo.num_routers):
            for neighbor, kind in topo.neighbors(rid).items():
                assert topo.link_kind(neighbor, rid) == kind

    def test_all_group_pairs_connected(self, small_topology):
        cfg = small_topology.config
        for a in range(cfg.num_groups):
            for b in range(cfg.num_groups):
                if a != b:
                    assert small_topology.gateways(a, b)

    def test_gateways_symmetric(self, small_topology):
        forward = small_topology.gateways(0, 1)
        backward = small_topology.gateways(1, 0)
        assert {(b, a) for a, b in forward} == set(backward)

    def test_gateways_same_group_rejected(self, small_topology):
        with pytest.raises(ValueError):
            small_topology.gateways(1, 1)

    def test_global_endpoint_budget_respected(self, small_topology):
        cfg = small_topology.config
        for rid in range(cfg.num_routers):
            blues = [
                n for n, kind in small_topology.neighbors(rid).items() if kind == LinkKind.BLUE
            ]
            assert len(blues) <= cfg.global_links_per_router

    def test_link_kind_missing_raises(self, small_topology):
        cfg = small_topology.config
        # Routers in different groups and different blade slots without an
        # optical link: find one pair that is not adjacent.
        for a in range(cfg.num_routers):
            for b in range(cfg.num_routers):
                if a != b and not small_topology.has_link(a, b):
                    with pytest.raises(KeyError):
                        small_topology.link_kind(a, b)
                    return
        pytest.skip("topology is fully connected")

    def test_all_links_count(self, small_topology):
        cfg = small_topology.config
        links = small_topology.all_links()
        greens = cfg.num_routers * (cfg.blades_per_chassis - 1)
        blacks = cfg.num_routers * (cfg.chassis_per_group - 1)
        blues = sum(
            1 for link in links if link.kind == LinkKind.BLUE
        )
        assert len(links) == greens + blacks + blues
        assert blues >= cfg.num_groups * (cfg.num_groups - 1)

    def test_link_latency_by_kind(self, small_topology):
        cfg = small_topology.config
        assert small_topology.link_latency(LinkKind.BLUE) == cfg.global_link_latency
        assert small_topology.link_latency(LinkKind.GREEN) == cfg.local_link_latency
        assert small_topology.link_latency(LinkKind.HOST) == cfg.host_link_latency

    def test_link_width_by_kind(self, small_topology):
        cfg = small_topology.config
        assert small_topology.link_width(LinkKind.BLACK) == cfg.intra_group_tiles
        assert small_topology.link_width(LinkKind.BLUE) == 1

    def test_degree_summary(self, small_topology):
        summary = small_topology.degree_summary()
        assert summary["routers"] == small_topology.num_routers
        assert summary["green_per_router"] == small_topology.config.blades_per_chassis - 1

    def test_coords_arrays_match_geometry(self, small_topology):
        cfg = small_topology.config
        for rid in range(cfg.num_routers):
            coord = RouterCoord.from_flat(rid, cfg)
            assert small_topology.coords_of(rid) == (coord.group, coord.chassis, coord.blade)

    def test_link_id_reverse_and_label(self, small_config):
        link = LinkId(0, 1, LinkKind.GREEN)
        assert link.reversed() == LinkId(1, 0, LinkKind.GREEN)
        assert "green" in link.label(small_config.topology)

    def test_bigger_aries_like_builds(self):
        topo = DragonflyTopology(TopologyConfig.aries_like(num_groups=4))
        topo.validate()


class TestHopCounts:
    def test_same_router_zero(self, small_topology):
        assert hop_count_minimal(small_topology, 3, 3) == 0

    def test_same_chassis_one(self, small_topology):
        assert hop_count_minimal(small_topology, 0, 1) == 1

    def test_same_blade_slot_one(self, small_topology):
        cfg = small_topology.config
        other_chassis = cfg.blades_per_chassis  # router (0, 1, 0)
        assert hop_count_minimal(small_topology, 0, other_chassis) == 1

    def test_same_group_two(self, small_topology):
        cfg = small_topology.config
        diagonal = cfg.blades_per_chassis + 1  # router (0, 1, 1)
        assert hop_count_minimal(small_topology, 0, diagonal) == 2

    def test_inter_group_bounds(self, small_topology):
        cfg = small_topology.config
        for dst in range(cfg.routers_per_group, cfg.num_routers):
            hops = hop_count_minimal(small_topology, 0, dst)
            assert 1 <= hops <= 5

    def test_symmetric(self, small_topology):
        rng = random.Random(0)
        for _ in range(50):
            a = rng.randrange(small_topology.num_routers)
            b = rng.randrange(small_topology.num_routers)
            assert hop_count_minimal(small_topology, a, b) == hop_count_minimal(
                small_topology, b, a
            )


class TestPathSampler:
    @pytest.fixture
    def sampler(self, small_topology):
        return PathSampler(small_topology, random.Random(7))

    def test_minimal_paths_are_physical(self, sampler, small_topology):
        rng = random.Random(1)
        for _ in range(200):
            a = rng.randrange(small_topology.num_routers)
            b = rng.randrange(small_topology.num_routers)
            path = sampler.minimal(a, b)
            assert path[0] == a and path[-1] == b
            sampler.validate_path(path)

    def test_minimal_path_bounds_and_no_group_detour(self, sampler, small_topology):
        """A 'minimal' Dragonfly route takes the direct group-to-group link.

        Its length is bounded by 5 hops and never below the true minimum;
        it never visits a third group (that would be a Valiant detour).
        """
        rng = random.Random(2)
        for _ in range(200):
            a = rng.randrange(small_topology.num_routers)
            b = rng.randrange(small_topology.num_routers)
            path = sampler.minimal(a, b)
            hops = len(path) - 1
            assert hop_count_minimal(small_topology, a, b) <= hops <= 5
            groups = {small_topology.group_of(r) for r in path}
            assert groups <= {small_topology.group_of(a), small_topology.group_of(b)}
            if small_topology.group_of(a) == small_topology.group_of(b):
                assert hops <= 2

    def test_nonminimal_paths_are_physical(self, sampler, small_topology):
        rng = random.Random(3)
        for _ in range(200):
            a = rng.randrange(small_topology.num_routers)
            b = rng.randrange(small_topology.num_routers)
            path = sampler.nonminimal(a, b)
            assert path[0] == a and path[-1] == b
            sampler.validate_path(path)

    def test_nonminimal_at_least_as_long_as_minimal(self, sampler, small_topology):
        rng = random.Random(4)
        for _ in range(200):
            a = rng.randrange(small_topology.num_routers)
            b = rng.randrange(small_topology.num_routers)
            minimal = hop_count_minimal(small_topology, a, b)
            nonminimal = len(sampler.nonminimal(a, b)) - 1
            assert nonminimal >= minimal

    def test_inter_group_nonminimal_visits_intermediate_group(self, sampler, small_topology):
        cfg = small_topology.config
        src, dst = 0, cfg.num_routers - 1
        src_group = small_topology.group_of(src)
        dst_group = small_topology.group_of(dst)
        saw_intermediate = False
        for _ in range(50):
            path = sampler.nonminimal(src, dst)
            groups = {small_topology.group_of(r) for r in path}
            if groups - {src_group, dst_group}:
                saw_intermediate = True
                break
        assert saw_intermediate

    def test_nonminimal_with_explicit_intermediate(self, sampler, small_topology):
        path = sampler.nonminimal(0, small_topology.num_routers - 1, intermediate=2)
        groups = {small_topology.group_of(r) for r in path}
        assert 2 in groups

    def test_all_minimal_enumeration(self, sampler, small_topology):
        paths = sampler.all_minimal(0, small_topology.num_routers - 1)
        assert paths
        best = hop_count_minimal(small_topology, 0, small_topology.num_routers - 1)
        for path in paths:
            assert len(path) - 1 == best
            sampler.validate_path(path)

    def test_all_minimal_same_router(self, sampler):
        assert sampler.all_minimal(5, 5) == [(5,)]

    def test_intra_group_two_hop_has_two_minimal_paths(self, sampler, small_topology):
        cfg = small_topology.config
        diagonal = cfg.blades_per_chassis + 1
        paths = sampler.all_minimal(0, diagonal)
        assert len(paths) == 2

    def test_minimal_hops_cache_consistency(self, sampler, small_topology):
        rng = random.Random(5)
        for _ in range(100):
            a = rng.randrange(small_topology.num_routers)
            b = rng.randrange(small_topology.num_routers)
            assert sampler.minimal_hops(a, b) == hop_count_minimal(small_topology, a, b)

    def test_two_group_detour(self, tiny_topology):
        sampler = PathSampler(tiny_topology, random.Random(11))
        src, dst = 0, tiny_topology.num_routers - 1
        for _ in range(20):
            path = sampler.nonminimal(src, dst)
            sampler.validate_path(path)
            assert path[0] == src and path[-1] == dst

    def test_validate_path_rejects_bogus_hop(self, sampler, small_topology):
        # Two routers in different groups without a direct optical link.
        for a in range(small_topology.num_routers):
            for b in range(small_topology.num_routers):
                if (
                    a != b
                    and small_topology.group_of(a) != small_topology.group_of(b)
                    and not small_topology.has_link(a, b)
                ):
                    with pytest.raises(AssertionError):
                        sampler.validate_path((a, b))
                    return
        pytest.skip("no non-adjacent inter-group pair found")


class TestSharedPathTable:
    """Samplers share one lazily filled PathTable per TopologyConfig; how
    warm it is must never change what a seeded sampler draws."""

    CONFIGS = (
        TopologyConfig.tiny(),  # two groups: the two-group detour
        TopologyConfig(num_groups=5, chassis_per_group=2, blades_per_chassis=3,
                       nodes_per_router=1),
    )

    @staticmethod
    def _pairs(config, seed):
        routers = range(config.num_routers)
        pairs = [(a, b) for a in routers for b in routers]
        random.Random(seed).shuffle(pairs)
        return pairs

    @staticmethod
    def _draws(config, pairs):
        sampler = PathSampler(DragonflyTopology(config), random.Random(42))
        draws = []
        for a, b in pairs:
            draws.append(sampler.minimal(a, b))
            draws.append(sampler.nonminimal(a, b))
            draws.append(sampler.minimal_hops(a, b))
            draws.append(sampler.minimal(b, a))
        return draws

    @pytest.mark.parametrize("config", CONFIGS, ids=["two-groups", "five-groups"])
    def test_cold_and_warm_tables_draw_identically(self, config, monkeypatch):
        pairs = self._pairs(config, seed=1)
        monkeypatch.setattr(paths_module, "_TABLES", {})
        cold = self._draws(config, pairs)
        # Another sampler fills a fresh table in a different pair order
        # (and with its own random stream) before the same draws repeat.
        monkeypatch.setattr(paths_module, "_TABLES", {})
        filler = PathSampler(DragonflyTopology(config), random.Random(7))
        for a, b in reversed(pairs):
            filler.nonminimal(a, b)
            filler.all_minimal(a, b)
            filler.minimal_hops(a, b)
        assert self._draws(config, pairs) == cold

    def test_one_table_per_topology_config(self, monkeypatch):
        monkeypatch.setattr(paths_module, "_TABLES", {})
        small, tiny = TopologyConfig(), TopologyConfig.tiny()
        a = PathSampler(DragonflyTopology(small), random.Random(1))
        b = PathSampler(DragonflyTopology(small), random.Random(2))
        c = PathSampler(DragonflyTopology(tiny), random.Random(1))
        assert a.table is b.table is PathTable.of(DragonflyTopology(small))
        assert c.table is not a.table

    def test_all_minimal_returns_a_fresh_list(self, small_topology):
        sampler = PathSampler(small_topology, random.Random(7))
        dst = small_topology.num_routers - 1
        first = sampler.all_minimal(0, dst)
        expected = list(first)
        first.clear()
        second = sampler.all_minimal(0, dst)
        assert second == expected and second is not first
        assert sampler.all_minimal(5, 5) == [(5,)]


@given(
    num_groups=st.integers(min_value=1, max_value=5),
    chassis=st.integers(min_value=1, max_value=3),
    blades=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_property_topology_builds_and_routes(num_groups, chassis, blades):
    """Any geometry with enough optical endpoints builds a routable network."""
    routers_per_group = chassis * blades
    if num_groups > 1:
        needed = -(-(num_groups - 1) // routers_per_group)
    else:
        needed = 1
    config = TopologyConfig(
        num_groups=num_groups,
        chassis_per_group=chassis,
        blades_per_chassis=blades,
        nodes_per_router=1,
        global_links_per_router=needed,
    )
    topo = DragonflyTopology(config)
    topo.validate()
    sampler = PathSampler(topo, random.Random(0))
    rng = random.Random(1)
    for _ in range(20):
        a = rng.randrange(topo.num_routers)
        b = rng.randrange(topo.num_routers)
        path = sampler.minimal(a, b)
        sampler.validate_path(path)
        assert path[0] == a and path[-1] == b
        assert len(path) - 1 <= 5
