"""The original networkx routing implementations, kept as oracles.

``repro.netsim.routing`` serves every path query from the versioned
route cache; these are the uncached versions it replaced (a fresh graph
and a from-scratch networkx computation per call).  They lived in
``src/`` as ``*_reference`` until their last non-test caller was retired;
``tests/netsim/test_routing_equivalence.py`` holds the cache to them.
"""

from typing import Dict, List

import networkx as nx

from repro.netsim.routing import NoRouteError, Path
from repro.netsim.switch import ProgrammableSwitch
from repro.netsim.topology import Topology


def build_graph(topo: Topology) -> nx.Graph:
    """A fresh networkx export of the topology: edge weight is the
    forward direction's propagation delay (duplex links are symmetric
    by construction).  Was ``Topology.build_graph``."""
    g = nx.Graph()
    for name, node in topo.nodes.items():
        g.add_node(name, is_switch=isinstance(node, ProgrammableSwitch))
    for pair in topo.duplex_pairs():
        link = topo.links[pair]
        g.add_edge(*pair, capacity=link.capacity_bps,
                   delay=link.delay_s, weight=link.delay_s)
    return g


def shortest_path_reference(topo: Topology, src: str, dst: str) -> Path:
    """Original uncached networkx implementation (rebuilds the graph on
    every call)."""
    try:
        nodes = nx.shortest_path(build_graph(topo), src, dst,
                                 weight="weight")
    except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
        raise NoRouteError(f"no path {src} -> {dst}") from exc
    return Path.of(nodes)


def k_shortest_paths_reference(topo: Topology, src: str, dst: str,
                               k: int) -> List[Path]:
    """Original uncached networkx (Yen's) implementation."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if src == dst:
        raise ValueError(
            f"k_shortest_paths needs two distinct endpoints, got "
            f"src == dst == {src!r}")
    try:
        generator = nx.shortest_simple_paths(build_graph(topo), src, dst,
                                             weight="weight")
        result = []
        for nodes in generator:
            result.append(Path.of(nodes))
            if len(result) >= k:
                break
        return result
    except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
        raise NoRouteError(f"no path {src} -> {dst}") from exc


def install_host_routes_reference(
        topo: Topology, ecmp: bool = True) -> Dict[str, Dict[str, List[str]]]:
    """Original uncached networkx implementation (one
    ``dijkstra_predecessor_and_distance`` per host per call)."""
    graph = build_graph(topo)
    installed: Dict[str, Dict[str, List[str]]] = {}
    for host in topo.host_names:
        preds, _ = nx.dijkstra_predecessor_and_distance(
            graph, host, weight="weight")
        for sw_name in topo.switch_names:
            if sw_name not in preds or not preds[sw_name]:
                continue
            next_hops = sorted(preds[sw_name])
            if not ecmp:
                next_hops = next_hops[:1]
            switch = topo.switch(sw_name)
            switch.set_route(host, next_hops)
            installed.setdefault(sw_name, {})[host] = next_hops
    return installed


def install_switch_routes_reference(
        topo: Topology, ecmp: bool = True) -> Dict[str, Dict[str, List[str]]]:
    """Original uncached networkx implementation."""
    graph = build_graph(topo)
    installed: Dict[str, Dict[str, List[str]]] = {}
    for target in topo.switch_names:
        preds, _ = nx.dijkstra_predecessor_and_distance(
            graph, target, weight="weight")
        for sw_name in topo.switch_names:
            if sw_name == target or sw_name not in preds or not preds[sw_name]:
                continue
            next_hops = sorted(preds[sw_name])
            if not ecmp:
                next_hops = next_hops[:1]
            topo.switch(sw_name).set_route(target, next_hops)
            installed.setdefault(sw_name, {})[target] = next_hops
    return installed


def install_fast_reroute_alternates_reference(topo: Topology) -> None:
    """Original uncached networkx implementation (all-pairs Dijkstra)."""
    graph = build_graph(topo)
    dist = dict(nx.all_pairs_dijkstra_path_length(graph, weight="weight"))
    destinations = topo.host_names + topo.switch_names
    for sw_name in topo.switch_names:
        switch = topo.switch(sw_name)
        switch_neighbors = [n for n in switch.neighbors
                            if n in topo.switch_names]
        for primary in switch.neighbors:
            candidates = [n for n in switch_neighbors if n != primary]
            if not candidates:
                continue
            for dst in destinations:
                if dst == sw_name or dst not in dist:
                    continue
                loop_free = [
                    n for n in candidates
                    if dst in dist.get(n, {})
                    and dist[n][dst] < dist[n][sw_name] + dist[sw_name][dst]
                ]
                if not loop_free:
                    continue
                best = min(loop_free, key=lambda n: (dist[n][dst], n))
                switch.frr_dst[(primary, dst)] = best
