"""Energy-aware MANET routing protocols (E9, [30–32]).

Three protocols over the same connectivity graph:

* :class:`MinimumPowerRouting` (after [30]) — "Each link cost is set to
  the energy required for transmitting one packet of data across that
  link and Dijkstra's shortest path algorithm is used"; it repeatedly
  selects the same least-power routes and burns out the nodes on them.
* :class:`BatteryCostRouting` (after [31], MBCR-style) — link costs are
  inflated by the transmitter's depleted-battery cost 1/residual, so
  traffic routes around tired nodes.
* :class:`LifetimePredictionRouting` (after [32]) — picks the route
  whose bottleneck node has the largest *predicted* lifetime
  (residual / EWMA drain rate), a max-min criterion.

The battery/lifetime protocols "create additional control traffic",
modeled as a per-discovery energy surcharge on the route's nodes.

All three search a ``{u: {v: weight}}`` dict built per call from the
connectivity graph with one heap Dijkstra, which breaks ties as
networkx's ``dijkstra_path`` and Yen's ``shortest_simple_paths`` do.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count

from repro.manet.network import ManetNetwork

__all__ = [
    "RoutingProtocol",
    "MinimumPowerRouting",
    "BatteryCostRouting",
    "LifetimePredictionRouting",
    "PROTOCOLS",
]


def _dijkstra(adj: dict, src, dst, banned_nodes=(),
              banned_edges=None) -> tuple[float, list] | None:
    """``(cost, path)`` of the cheapest ``src`` → ``dst`` path in
    ``adj`` avoiding ``banned_nodes`` and the edges ``u → v`` with
    ``v in banned_edges[u]``; ``None`` if there is none.  Ties go to
    the node pushed first; relaxation needs a strictly shorter path.
    """
    done = set(banned_nodes)
    best = {src: 0}
    pred = {src: None}
    push = count()
    fringe = [(0, next(push), src)]
    while fringe:
        cost, _, node = heappop(fringe)
        if node in done:
            continue
        if node == dst:
            path = [node]
            while pred[path[-1]] is not None:
                path.append(pred[path[-1]])
            path.reverse()
            return cost, path
        done.add(node)
        skip = banned_edges.get(node, ()) if banned_edges else ()
        for nbr, weight in adj[node].items():
            if nbr in done or nbr in skip:
                continue
            through = cost + weight
            if nbr not in best or through < best[nbr]:
                best[nbr] = through
                pred[nbr] = node
                heappush(fringe, (through, next(push), nbr))
    return None


def _k_shortest_paths(adj: dict, src, dst, k: int) -> list[list]:
    """Up to ``k`` loopless ``src`` → ``dst`` paths, cheapest first
    (Yen).  ``adj`` must be symmetric.

    Candidates are ordered by ``(cost, push order)`` and kept once per
    path; the search stops at the k-th path, before its spurs.
    """
    first = _dijkstra(adj, src, dst)
    if first is None:
        return []
    push = count()
    candidates = [(first[0], next(push), first[1])]
    queued = {tuple(first[1])}
    paths: list[list] = []
    while candidates:
        _, _, path = heappop(candidates)
        paths.append(path)
        if len(paths) == k:
            break
        banned_nodes: list = []
        banned_edges: dict = {}
        for i in range(1, len(path)):
            root = path[:i]
            root_cost = sum(adj[u][v] for u, v in zip(root, root[1:]))
            for found in paths:
                if found[:i] == root:
                    a, b = found[i - 1], found[i]
                    banned_edges.setdefault(a, set()).add(b)
                    banned_edges.setdefault(b, set()).add(a)
            spur = _dijkstra(adj, root[-1], dst, banned_nodes,
                             banned_edges)
            if spur is not None:
                candidate = root[:-1] + spur[1]
                key = tuple(candidate)
                if key not in queued:
                    queued.add(key)
                    heappush(candidates,
                             (root_cost + spur[0], next(push), candidate))
            banned_nodes.append(root[-1])
    return paths


def _battery_weights(graph, network: ManetNetwork, *,
                     symmetric: bool) -> dict:
    """``{u: {v: tx_energy_unit / residual}}`` with the residual battery
    fraction (floored at 1e-6) of the sender ``u``, or with
    ``symmetric`` of the endpoint ``graph.edges()`` reports first.
    """
    adj = graph._adj
    residual = {
        u: max(network.node(u).residual_fraction, 1e-6) for u in adj
    }
    rank = {u: i for i, u in enumerate(adj)}
    return {
        u: {
            v: data["tx_energy_unit"] / residual[
                v if symmetric and rank[v] < rank[u] else u]
            for v, data in nbrs.items()
        }
        for u, nbrs in adj.items()
    }


class RoutingProtocol:
    """Base class: find a route for one session.

    Parameters
    ----------
    control_overhead:
        Extra energy per route discovery, as a fraction of the data
        energy, charged to every node on the chosen route.
    """

    name = "base"
    control_overhead = 0.0

    def find_route(self, network: ManetNetwork, src: int,
                   dst: int) -> list[int] | None:
        """Route from ``src`` to ``dst`` or ``None`` if unreachable."""
        raise NotImplementedError


class MinimumPowerRouting(RoutingProtocol):
    """Least-transmit-energy path (Dijkstra on TX energy), per [30]."""

    name = "min-power"
    control_overhead = 0.0

    def find_route(self, network: ManetNetwork, src: int,
                   dst: int) -> list[int] | None:
        graph = network.connectivity_graph()
        if src not in graph or dst not in graph:
            return None
        # Min-power link costs depend only on the topology, so for a
        # given connectivity graph the (src, dst) route is a pure
        # function — memoize it on the graph itself (graph-level attr
        # dict), which the network rebuilds on every topology change.
        memo = graph.graph.setdefault("_min_power_routes", {})
        route = memo.get((src, dst), False)
        if route is not False:
            return route
        # tx_energy_unit is precomputed per edge at graph build (the
        # same radio.tx_energy(1.0, distance) value this protocol used
        # to evaluate per relaxation).
        adj = {
            u: {v: data["tx_energy_unit"] for v, data in nbrs.items()}
            for u, nbrs in graph._adj.items()
        }
        found = _dijkstra(adj, src, dst)
        route = memo[(src, dst)] = found[1] if found else None
        return route


class BatteryCostRouting(RoutingProtocol):
    """Battery-cost-aware routing (after [31]).

    Link cost = TX energy × f(residual) with f(r) = 1/r: a nearly-empty
    forwarder makes its links expensive, spreading load.
    """

    name = "battery-cost"
    control_overhead = 0.02

    def find_route(self, network: ManetNetwork, src: int,
                   dst: int) -> list[int] | None:
        graph = network.connectivity_graph()
        if src not in graph or dst not in graph:
            return None
        adj = _battery_weights(graph, network, symmetric=False)
        found = _dijkstra(adj, src, dst)
        return found[1] if found else None


class LifetimePredictionRouting(RoutingProtocol):
    """Max-min predicted-lifetime routing (after [32]).

    LPR runs on top of a DSR-style on-demand discovery: the source
    learns a handful of (near-shortest) candidate routes and picks the
    one whose bottleneck node has the largest predicted lifetime
    (residual energy / EWMA drain rate).  Restricting the choice to
    discovered routes is what keeps the selected paths energy-sane —
    a pure max-min over the whole graph would happily take arbitrarily
    long detours through fresh nodes.

    Parameters
    ----------
    n_candidates:
        How many discovered routes the selection considers.
    """

    name = "lifetime-prediction"
    control_overhead = 0.02

    def __init__(self, n_candidates: int = 6):
        if n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        self.n_candidates = n_candidates

    def find_route(self, network: ManetNetwork, src: int,
                   dst: int) -> list[int] | None:
        graph = network.connectivity_graph()
        if src not in graph or dst not in graph:
            return None

        def bottleneck_lifetime(route: list[int]) -> float:
            # All forwarding nodes (and the receiver) must stay alive.
            return min(
                network.node(node_id).predicted_lifetime()
                for node_id in route[1:]
            )

        # Discovery metric: transmit energy inflated by the sender's
        # battery depletion (the route-request flooding of LPR reaches
        # the destination along paths that avoid tired forwarders), so
        # candidates are both energy-competitive and diverse; the
        # lifetime criterion then arbitrates among them.
        adj = _battery_weights(graph, network, symmetric=True)
        candidates = _k_shortest_paths(adj, src, dst, self.n_candidates)
        if not candidates:
            return None
        return max(candidates, key=bottleneck_lifetime)


#: The protocol lineup of the E9 bench.
PROTOCOLS = (
    MinimumPowerRouting,
    BatteryCostRouting,
    LifetimePredictionRouting,
)
