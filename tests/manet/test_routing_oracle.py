"""Differential tests: the routing module's own Dijkstra and Yen
k-shortest against networkx, which stays a dependency as the oracle.

Graphs are seeded random geometric networks (``random_network``) with
randomly drained batteries, so the battery-scaled weights differ per
node, as they do in E9.
"""

from __future__ import annotations

from itertools import islice

import networkx as nx
import pytest

from repro.manet import LifetimePredictionRouting, random_network
from repro.manet.routing import (
    _battery_weights,
    _dijkstra,
    _k_shortest_paths,
)
from repro.utils.rng import spawn_rng

SEEDS = range(6)


def drained_network(seed, n_nodes=30, tx_range=250.0):
    """A random network whose batteries are drained to random levels."""
    network = random_network(n_nodes=n_nodes, tx_range=tx_range,
                             seed=seed)
    rng = spawn_rng(seed, "routing-oracle-drain")
    for node in network.nodes.values():
        node.consume(float(rng.random()) * 0.9 * node.battery)
    return network


def endpoint_pairs(network, seed, n_pairs=8):
    rng = spawn_rng(seed, "routing-oracle-pairs")
    ids = sorted(network.nodes)
    return [tuple(int(i) for i in rng.choice(ids, size=2, replace=False))
            for _ in range(n_pairs)]


def residual(network, node_id):
    return max(network.node(node_id).residual_fraction, 1e-6)


def lpr_oracle_graph(network):
    """A copy of the connectivity graph weighted as LPR discovery used
    to weight it: each edge in ``edges()`` orientation, by its first
    endpoint's residual."""
    graph = network.connectivity_graph().copy()
    for u, v, data in graph.edges(data=True):
        data["tx_energy"] = data["tx_energy_unit"] / residual(network, u)
    return graph


def nx_k_shortest(graph, src, dst, k):
    try:
        return list(islice(
            nx.shortest_simple_paths(graph, src, dst, weight="tx_energy"),
            k))
    except nx.NetworkXNoPath:
        return []


def nx_dijkstra(graph, src, dst, weight):
    try:
        return nx.dijkstra_path(graph, src, dst, weight=weight)
    except nx.NetworkXNoPath:
        return None


def route(found):
    return found[1] if found is not None else None


@pytest.mark.parametrize("seed", SEEDS)
def test_dijkstra_matches_networkx_on_symmetric_weights(seed):
    network = drained_network(seed, tx_range=200.0)
    graph = network.connectivity_graph()
    adj = {u: {v: data["tx_energy_unit"] for v, data in nbrs.items()}
           for u, nbrs in graph.adj.items()}
    for src, dst in endpoint_pairs(network, seed):
        assert route(_dijkstra(adj, src, dst)) == nx_dijkstra(
            graph, src, dst, "tx_energy_unit")


@pytest.mark.parametrize("seed", SEEDS)
def test_dijkstra_matches_networkx_on_directional_weights(seed):
    network = drained_network(seed, tx_range=200.0)
    graph = network.connectivity_graph()
    adj = _battery_weights(graph, network, symmetric=False)

    def weight(u, v, data):
        return data["tx_energy_unit"] / residual(network, u)

    for src, dst in endpoint_pairs(network, seed):
        assert route(_dijkstra(adj, src, dst)) == nx_dijkstra(
            graph, src, dst, weight)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [1, 6, 15])
def test_k_shortest_matches_networkx_order(seed, k):
    network = drained_network(seed)
    graph = network.connectivity_graph()
    adj = _battery_weights(graph, network, symmetric=True)
    oracle = lpr_oracle_graph(network)
    for src, dst in endpoint_pairs(network, seed, n_pairs=4):
        assert _k_shortest_paths(adj, src, dst, k) == nx_k_shortest(
            oracle, src, dst, k)


@pytest.mark.parametrize("seed", SEEDS)
def test_k_shortest_enumerates_every_simple_path(seed):
    # Seven nodes in a small square: few enough simple paths that
    # k = 10_000 exceeds their number, so both run out of candidates.
    network = drained_network(seed, n_nodes=7, tx_range=900.0)
    graph = network.connectivity_graph()
    adj = _battery_weights(graph, network, symmetric=True)
    oracle = lpr_oracle_graph(network)
    for src, dst in endpoint_pairs(network, seed, n_pairs=3):
        expected = nx_k_shortest(oracle, src, dst, 10_000)
        assert 0 < len(expected) < 10_000
        assert _k_shortest_paths(adj, src, dst, 10_000) == expected


def test_no_path():
    # Two clusters far out of radio range of each other.
    network = drained_network(0, n_nodes=12, tx_range=60.0)
    graph = network.connectivity_graph()
    components = list(nx.connected_components(graph))
    assert len(components) > 1
    src, dst = min(components[0]), min(components[1])
    adj = _battery_weights(graph, network, symmetric=True)
    assert _dijkstra(adj, src, dst) is None
    assert nx_dijkstra(graph, src, dst, "tx_energy_unit") is None
    assert _k_shortest_paths(adj, src, dst, 6) == []
    assert nx_k_shortest(lpr_oracle_graph(network), src, dst, 6) == []


def test_symmetric_weights_follow_edge_view_orientation():
    network = drained_network(1)
    graph = network.connectivity_graph()
    adj = _battery_weights(graph, network, symmetric=True)
    for u, v, data in graph.edges(data=True):
        expected = data["tx_energy_unit"] / residual(network, u)
        assert adj[u][v] == adj[v][u] == expected
        assert list(adj[u]) == list(graph.adj[u])


def test_lpr_leaves_the_shared_graph_untouched():
    network = drained_network(2)
    graph = network.connectivity_graph()
    before = {(u, v): sorted(data) for u, v, data in graph.edges(data=True)}
    protocol = LifetimePredictionRouting()
    for src, dst in endpoint_pairs(network, 2):
        protocol.find_route(network, src, dst)
    assert network.connectivity_graph() is graph  # the cached instance
    after = {(u, v): sorted(data) for u, v, data in graph.edges(data=True)}
    assert after == before
