"""Path choice of the flow backend against the plain scoring loop.

For the adaptive modes, :meth:`FlowNetwork._choose_paths` draws both
Valiant candidates first and stops at the first minimal path whose score is
at most ``floor``, each candidate's score with its fabric overloads left
out.  :func:`reference_choose_paths` is the loop it replaced: it scores
every minimal path and every new candidate, drawing each candidate just
before its score.  Both must return the same paths and leave the routing
stream in the same state, on any link load.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import repro.model.flow.network as flow_network
from repro.config import SimulationConfig
from repro.model.flow.network import FlowNetwork
from repro.routing.bias import bias_for_mode
from repro.routing.modes import ADAPTIVE_MODES, RoutingMode

ADAPTIVE = sorted(ADAPTIVE_MODES, key=lambda mode: mode.value)


def reference_choose_paths(net: FlowNetwork, src_node: int, dst_node: int, mode):
    """The adaptive path choice with every path scored.

    Returns ``(spread, detours, storable)`` as ``_choose_paths`` does, how
    many paths the floor test may score on the same draws and load, and
    whether it stops before scoring every path.
    """
    src_router = net.nics[src_node].router_id
    dst_router = net.nics[dst_node].router_id
    sampler = net.sampler
    cfg = net.config.routing
    if mode is RoutingMode.ADAPTIVE_0:
        bias = 0.0
    else:
        bias = bias_for_mode(mode, cfg, sampler.minimal_hops(src_router, dst_router))
    minimal_paths, whole = net._minimal_spread(src_router, dst_router)
    seen = set(minimal_paths)
    inj = net._overload_flits(("host", "inj", src_node))
    ej = net._overload_flits(("host", "ej", dst_node))
    routes = net._routes
    minimal_scores = [
        net._path_score(inj, ej, routes.minimal_fabric(path)) for path in minimal_paths
    ]
    best_minimal = min(minimal_scores)
    candidates = []
    detours = []
    for _ in range(cfg.nonminimal_candidates):
        path = sampler.nonminimal(src_router, dst_router)
        candidates.append(path)
        if path in seen:
            continue
        seen.add(path)
        fabric = routes.path_fabric(path)
        score = net._path_score(inj, ej, fabric) * cfg.nonminimal_penalty + bias
        if score < best_minimal:
            detours.append((path, fabric))
    chosen = (minimal_paths, detours, whole and not detours)
    # The floor test scores up to and including the first minimal path at
    # or under ``floor``, else every path scored above.
    floor = min(
        (inj + ej + float(len(path) - 1)) * cfg.nonminimal_penalty + bias
        for path in candidates
    )
    for index, score in enumerate(minimal_scores):
        if score <= floor:
            return chosen, index + 1, True
    new_candidates = set(candidates) - set(minimal_paths)
    return chosen, len(minimal_scores) + len(new_candidates), False


def _network(penalty: float) -> FlowNetwork:
    config = SimulationConfig.small().with_backend("flow")
    routing = dataclasses.replace(config.routing, nonminimal_penalty=penalty)
    return FlowNetwork(dataclasses.replace(config, routing=routing))


def _load(net: FlowNetwork, rng: random.Random, level: float) -> None:
    """Random demand on a ``level`` share of all links, from idle up to
    past the 4-buffer overload cap."""
    demand = net._link_demand
    demand.clear()
    keys = [("fab", link.src, link.dst) for link in net.topology.all_links()]
    for node in range(net.num_nodes):
        keys += [("host", "inj", node), ("host", "ej", node)]
    for key in keys:
        if rng.random() < level:
            demand[key] = net._capacity_of(key) * rng.uniform(0.0, 5.5)


def _pairs(net: FlowNetwork, rng: random.Random, count: int):
    """Node pairs on distinct routers, including every router pair whose
    minimal set is sampled rather than spread over whole."""
    per_router = net.config.topology.nodes_per_router
    table = net.sampler.table
    routers = net.num_routers
    pairs = [
        (a * per_router, b * per_router)
        for a in range(routers) for b in range(routers)
        if a != b and len(table.all_minimal(a, b)) > flow_network._MAX_SPREAD
    ]
    assert pairs, "the topology has no sampled spreads"
    while len(pairs) < count:
        src, dst = rng.sample(range(net.num_nodes), 2)
        if net.nics[src].router_id != net.nics[dst].router_id:
            pairs.append((src, dst))
    return pairs


def _counting_scores(net: FlowNetwork) -> list:
    """Count the backend's own ``_path_score`` calls (an instance shadow)."""
    calls = []
    score = FlowNetwork._path_score

    def counting(inj, ej, fabric):
        calls.append(1)
        return score(net, inj, ej, fabric)

    net._path_score = counting
    return calls


class TestFloorOracle:
    @pytest.mark.parametrize("penalty", [2.0, 0.5])
    def test_same_paths_and_draws_as_scoring_every_path(self, penalty):
        net = _network(penalty)
        stream = net.sampler.rng
        rng = random.Random(28)
        joined = stopped = cases = 0
        for trial in range(60):
            _load(net, rng, level=(0.0, 0.1, 0.4, 0.9)[trial % 4])
            for src, dst in _pairs(net, rng, 12):
                for mode in ADAPTIVE:
                    case = (trial, src, dst, mode)
                    before = stream.getstate()
                    expected, scored, early = reference_choose_paths(net, src, dst, mode)
                    after = stream.getstate()
                    stream.setstate(before)
                    calls = _counting_scores(net)
                    chosen = net._choose_paths(src, dst, mode)
                    del net._path_score
                    assert chosen == expected, case
                    assert stream.getstate() == after, case
                    assert len(calls) == scored, case
                    cases += 1
                    joined += bool(expected[1])
                    stopped += early
        assert joined >= 20, "no load made a detour join the spread"
        assert 0 < stopped < cases

    def test_idle_network_scores_one_path_per_adaptive_send(self):
        net = _network(SimulationConfig().routing.nonminimal_penalty)
        rng = random.Random(7)
        for src, dst in _pairs(net, rng, 24):
            for mode in ADAPTIVE:
                calls = _counting_scores(net)
                message = net.send(src, dst, 16384, routing_mode=mode)
                del net._path_score
                assert len(calls) == 1, (src, dst, mode)
                net.run_until_idle()
                assert message.nonminimal_packets == 0
