"""Route computation: paths, ECMP tables, and path utilities.

Two kinds of routing state coexist (mirroring the paper's split between
bulk traffic and control traffic):

* **Flow paths** — bulk data flows carry an explicit path assigned by a
  traffic-engineering controller or changed at runtime by rerouting
  boosters; the fluid allocator charges links along that path.
* **Switch tables** — hop-by-hop ECMP next-hop tables installed on the
  switches, used by packet-level traffic (probes, traceroutes, ICMP,
  mode-change messages).

This module computes both.  Path queries are served by the versioned
:mod:`routecache` layer — native heap Dijkstra trees and a Yen's
k-shortest-paths kernel memoized on ``Topology.version`` — instead of
rebuilding a networkx graph and recomputing from scratch per call.  The
original networkx implementations are the oracles in
``tests/oracles/routing.py``; ``tests/netsim/test_routing_equivalence.py``
holds this module to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .topology import Topology


class NoRouteError(RuntimeError):
    """Raised when no path exists between the requested endpoints."""


@dataclass(frozen=True)
class Path:
    """An explicit node-level path (hosts included at the ends)."""

    nodes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 1:
            raise ValueError("a path needs at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"path has a loop: {self.nodes}")
        # Paths are immutable, so the link keys can be materialized once;
        # the fluid allocator reads them on every pass (hot path).
        object.__setattr__(self, "_link_keys",
                           tuple(zip(self.nodes, self.nodes[1:])))

    @classmethod
    def of(cls, nodes: Sequence[str]) -> "Path":
        return cls(tuple(nodes))

    @property
    def src(self) -> str:
        return self.nodes[0]

    @property
    def dst(self) -> str:
        return self.nodes[-1]

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1

    @property
    def link_keys(self) -> Tuple[Tuple[str, str], ...]:
        """Directed (src, dst) link keys along the path, as an immutable
        tuple computed once at construction.  Hot-path accessor: the fluid
        allocator and per-flow caches read this instead of :meth:`links`,
        which allocates a fresh list per call."""
        return self._link_keys  # type: ignore[attr-defined]

    def links(self) -> List[Tuple[str, str]]:
        """Directed (src, dst) link keys along the path."""
        return list(self._link_keys)  # type: ignore[attr-defined]

    def latency(self, topo: Topology) -> float:
        """Total propagation delay along the path."""
        return sum(topo.link(a, b).delay_s for a, b in self.link_keys)

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __str__(self) -> str:
        return "->".join(self.nodes)


# ----------------------------------------------------------------------
# Path computation (cache-served)
# ----------------------------------------------------------------------
def shortest_path(topo: Topology, src: str, dst: str) -> Path:
    """The delay-weighted shortest path."""
    nodes = topo.route_cache.shortest_node_path(src, dst)
    if nodes is None:
        raise NoRouteError(f"no path {src} -> {dst}")
    return Path(nodes)


def k_shortest_paths(topo: Topology, src: str, dst: str, k: int) -> List[Path]:
    """Up to ``k`` loop-free paths in increasing delay order (Yen's).

    Served from the per-(src, dst, k) candidate memo: a periodic TE pass
    re-requesting unchanged commodities costs a dictionary lookup.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if src == dst:
        raise ValueError(
            f"k_shortest_paths needs two distinct endpoints, got "
            f"src == dst == {src!r}")
    node_paths = topo.route_cache.k_shortest_node_paths(src, dst, k)
    if node_paths is None:
        raise NoRouteError(f"no path {src} -> {dst}")
    return [Path(nodes) for nodes in node_paths]


# ----------------------------------------------------------------------
# Switch table installation
# ----------------------------------------------------------------------
def install_host_routes(topo: Topology) -> Dict[str, Dict[str, List[str]]]:
    """Install next-hop tables on every switch for every host destination.

    Every equal-cost next hop is installed.  Returns the table that was
    installed, keyed ``switch -> dst_host -> [next hops]`` (handy for
    tests).

    One cached SSSP tree per host serves every switch's next hops toward
    it — and the same trees back later ``shortest_path`` queries and
    Yen spur computations for free.
    """
    cache = topo.route_cache
    switch_names = topo.switch_names
    installed: Dict[str, Dict[str, List[str]]] = {}
    for host in topo.host_names:
        # Predecessor-based next hops toward `host` from every switch.
        preds = cache.sssp_tree(host).preds
        for sw_name in switch_names:
            pred_list = preds.get(sw_name)
            if not pred_list:
                continue
            next_hops = sorted(pred_list)
            switch = topo.switch(sw_name)
            switch.set_route(host, next_hops)
            installed.setdefault(sw_name, {})[host] = next_hops
    return installed


def install_switch_routes(topo: Topology) -> Dict[str, Dict[str, List[str]]]:
    """Install next-hop tables for *switch* destinations too.

    Switch-to-switch control traffic (detector synchronization digests,
    unicast mode probes) needs multi-hop routes between switches;
    :func:`install_host_routes` only covers host destinations.
    """
    cache = topo.route_cache
    switch_names = topo.switch_names
    installed: Dict[str, Dict[str, List[str]]] = {}
    for target in switch_names:
        preds = cache.sssp_tree(target).preds
        for sw_name in switch_names:
            if sw_name == target:
                continue
            pred_list = preds.get(sw_name)
            if not pred_list:
                continue
            next_hops = sorted(pred_list)
            topo.switch(sw_name).set_route(target, next_hops)
            installed.setdefault(sw_name, {})[target] = next_hops
    return installed


def install_path_route(topo: Topology, path: Path, dst: Optional[str] = None
                       ) -> None:
    """Pin per-destination routes along an explicit path.

    Every switch on ``path`` gets its next hop toward ``dst`` (defaulting
    to the path's final node) replaced by the path's successor, so
    packet-level traffic follows the same route the fluid model charges.
    """
    target = dst if dst is not None else path.dst
    for here, nxt in path.link_keys:
        node = topo.node(here)
        if hasattr(node, "set_route"):
            node.set_route(target, [nxt])


def install_flow_route(topo: Topology, path: Path) -> None:
    """Pin the (src, dst) pair onto an explicit path on every switch.

    The pair key is (path.src, path.dst) — typically two hosts.  Used by
    TE deployments and rerouting defenses so packet-level traffic (and
    the attacker's traceroutes) follow the paths the fluid model charges.
    """
    pair = (path.src, path.dst)
    for here, nxt in path.link_keys:
        node = topo.node(here)
        if hasattr(node, "flow_routes"):
            node.flow_routes[pair] = nxt


def clear_flow_route(topo: Topology, src: str, dst: str) -> None:
    """Remove any pinned route for the pair from every switch."""
    pair = (src, dst)
    for name in topo.switch_names:
        topo.switch(name).flow_routes.pop(pair, None)


def default_path_for(topo: Topology, src: str, dst: str) -> Path:
    """The path hop-by-hop forwarding gives the pair from the *static*
    destination tables (ignoring pinned flow routes).

    This is both how freshly arriving flows get routed before any TE or
    defense touches them, and what a NetHide-style obfuscator reports to
    suspicious traceroutes (the pre-attack view of the network).
    """
    from .packet import Packet  # local import to avoid cycle at module load
    src_host = topo.host(src)
    if src_host.gateway is None:
        raise NoRouteError(f"host {src} has no gateway")
    probe = Packet(src=src, dst=dst)
    nodes = [src]
    current = src_host.gateway
    seen = {src}
    while current != dst:
        if current in seen:
            raise NoRouteError(f"static routing loop at {current} "
                               f"for {src}->{dst}")
        seen.add(current)
        nodes.append(current)
        switch = topo.switch(current)
        candidates = switch.routes.get(dst, [])
        if not candidates:
            raise NoRouteError(f"{current} has no route to {dst}")
        current = switch._ecmp_pick(probe, candidates)
    nodes.append(dst)
    return Path.of(nodes)


def install_fast_reroute_alternates(topo: Topology) -> None:
    """Install per-destination loop-free alternates (LFA) on every switch.

    The alternate ``A`` protecting switch ``S``'s next hop ``N`` toward
    destination ``d`` must satisfy the node-protecting LFA condition
    ``dist(A, d) < dist(A, S) + dist(S, d)`` — guaranteeing A's own
    shortest path toward ``d`` does not come back through ``S`` (no
    micro-loops) and, because it is a strict detour-free inequality,
    typically avoids the failed region entirely.

    Distances come from the cached per-switch SSSP trees (the same trees
    :func:`install_switch_routes` populates), replacing the former
    all-pairs networkx Dijkstra.
    """
    cache = topo.route_cache
    destinations = topo.host_names + topo.switch_names
    switch_names = set(topo.switch_names)
    dist: Dict[str, Dict[str, float]] = {}

    def dist_from(root: str) -> Dict[str, float]:
        table = dist.get(root)
        if table is None:
            table = cache.sssp_tree(root).dist
            dist[root] = table
        return table

    for sw_name in topo.switch_names:
        switch = topo.switch(sw_name)
        switch_neighbors = [n for n in switch.neighbors
                            if n in switch_names]
        sw_dist = dist_from(sw_name)
        for primary in switch.neighbors:
            candidates = [n for n in switch_neighbors if n != primary]
            if not candidates:
                continue
            for dst in destinations:
                if dst == sw_name:
                    continue
                loop_free = [
                    n for n in candidates
                    if dst in dist_from(n)
                    and dist_from(n)[dst] < dist_from(n)[sw_name]
                    + sw_dist[dst]
                ]
                if not loop_free:
                    continue
                best = min(loop_free, key=lambda n: (dist_from(n)[dst], n))
                switch.frr_dst[(primary, dst)] = best
