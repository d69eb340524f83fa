"""Versioned routing-computation cache and native SSSP kernels.

Every route computation used to rebuild a fresh ``nx.Graph`` from the
:class:`Topology` and run a networkx Dijkstra/Yen per query with zero
reuse across calls.  This module replaces that hot path with two
cache layers, both keyed on the ``Topology.version`` counter (bumped
by every ``add_*`` call — see DESIGN.md "Routing cache"):

* **sssp** — one native heap-based Dijkstra tree per root node
  (:class:`SsspTree`), holding distances, strict-improvement parents
  (single-path reconstruction) and the full equal-cost predecessor
  lists (ECMP table installation).  A tree rooted at a host serves
  *every* switch's next hops toward that host, every pairwise
  ``shortest_path`` query from that root, and the spur-path fast path
  of Yen's algorithm.
* **yen** — per ``(src, dst, k)`` candidate path sets from Yen's
  k-shortest-paths, so a periodic TE pass reuses every commodity's
  candidates instead of recomputing them.

Invalidation is a flush: a topology only grows while it is built, and
an added link can shorten any pair's path, so the first query after a
``version`` change drops every SSSP tree and every candidate set.  A
topology that is built, then run, syncs once and never flushes.

The native Dijkstra replicates networkx's ``_dijkstra_multisource``
exactly — heap entries ``(dist, insertion_counter, node)``, neighbors
relaxed in sorted-name order (the insertion order of the exported
graph), parents updated only on strict improvement — so single-path
results are *identical* to the networkx reference, including tie-break
arithmetic.  Yen's candidate ordering follows the same
(cost, generation-counter) rule as ``nx.shortest_simple_paths``; the
documented divergence is that equal-cost spur paths are chosen by this
module's plain/A* Dijkstra rather than networkx's bidirectional search
(see ``tests/netsim/test_routing_equivalence.py``).
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..telemetry import metrics

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from .topology import Topology

NodePath = Tuple[str, ...]
LinkKey = Tuple[str, str]

_MET = metrics()
_C_HITS = _MET.counter(
    "routing_cache_hits_total",
    "routing cache hits, by layer (graph/sssp/yen)",
    labelnames=("layer",))
_C_MISSES = _MET.counter(
    "routing_cache_misses_total",
    "routing cache misses, by layer (graph/sssp/yen)",
    labelnames=("layer",))
_C_SSSP = _MET.counter(
    "routing_sssp_recomputes_total",
    "native single-source shortest-path tree computations")
_C_SSSP_PARTIAL = _MET.counter(
    "routing_sssp_partial_total",
    "early-terminated multi-target shortest-path computations")
# Counts the candidate sets a topology addition flushes.  Its
# description predates the flush and is hashed by bench/digests.json, so
# it is corrected only when the digests are re-pinned.
_C_INVALIDATED = _MET.counter(
    "routing_candidates_invalidated_total",
    "cached k-shortest candidate sets dropped by link removals")

# The networkx "graph" layer is gone, but bench/digests.json (frozen)
# hashes the registry's family names, descriptions and label children:
# its rebuild counter and its "graph" children stay registered, at zero,
# until a benchmark-labelled PR re-pins the digests and deletes them.
_MET.counter("routing_graph_rebuilds_total",
             "networkx graph snapshot rebuilds")
_HIT = {layer: _C_HITS.labels(layer) for layer in ("graph", "sssp", "yen")}
_MISS = {layer: _C_MISSES.labels(layer) for layer in ("graph", "sssp", "yen")}


class SsspTree:
    """One root's single-source shortest-path state.

    ``dist`` maps every reachable node to its delay-weighted distance
    from ``root``; ``parent`` is the strict-improvement predecessor used
    for single-path reconstruction (identical to the path networkx's
    Dijkstra reports); ``preds`` holds *all* equal-cost predecessors
    (what ``nx.dijkstra_predecessor_and_distance`` returns), used for
    ECMP next-hop installation.
    """

    __slots__ = ("root", "dist", "parent", "preds")

    def __init__(self, root: str, dist: Dict[str, float],
                 parent: Dict[str, Optional[str]],
                 preds: Dict[str, List[str]]):
        self.root = root
        self.dist = dist
        self.parent = parent
        self.preds = preds

    def path_to(self, dst: str) -> Optional[NodePath]:
        """The root -> dst node path, or None if unreachable."""
        if dst not in self.dist:
            return None
        nodes = [dst]
        cur = dst
        while cur != self.root:
            cur = self.parent[cur]  # type: ignore[assignment]
            nodes.append(cur)
        nodes.reverse()
        return tuple(nodes)


def _dijkstra(adj: Dict[str, List[Tuple[str, float]]],
              root: str,
              targets: Optional[Set[str]] = None) -> SsspTree:
    """Native heap Dijkstra, bit-compatible with networkx's.

    Heap entries are ``(dist, push_counter, node)`` and neighbors are
    relaxed in the adjacency order (sorted names — the insertion order
    of the exported graph), so pop order, parent choice on ties, and
    the floating-point accumulation sequence all match
    ``nx._dijkstra_multisource``.

    With ``targets``, the search stops once every target is finalized.
    A node's ``dist``/``parent`` entries are final the moment it pops,
    so every finalized node's reconstructed path is identical to the
    full tree's — but ``preds`` lists of non-finalized nodes are
    incomplete, so partial trees must never be cached or used for ECMP
    enumeration.
    """
    dist: Dict[str, float] = {}
    seen: Dict[str, float] = {root: 0.0}
    parent: Dict[str, Optional[str]] = {root: None}
    preds: Dict[str, List[str]] = {root: []}
    remaining = None if targets is None else set(targets)
    counter = count(1)
    fringe: List[Tuple[float, int, str]] = [(0.0, 0, root)]
    push = heapq.heappush
    pop = heapq.heappop
    while fringe:
        d, _, v = pop(fringe)
        if v in dist:
            continue  # already finalized via a shorter entry
        dist[v] = d
        if remaining is not None:
            remaining.discard(v)
            if not remaining:
                break
        for u, w in adj[v]:
            vu = d + w
            if u in dist:
                if vu == dist[u]:
                    preds[u].append(v)
                continue
            su = seen.get(u)
            if su is None or vu < su:
                seen[u] = vu
                parent[u] = v
                preds[u] = [v]
                push(fringe, (vu, next(counter), u))
            elif vu == su:
                preds[u].append(v)
    return SsspTree(root, dist, parent, preds)


class RouteCache:
    """Per-topology route cache; invalidated by ``Topology.version``."""

    def __init__(self, topo: "Topology"):
        self._topo = topo
        #: Version both layers were last synced at.
        self._synced_version: Optional[int] = None
        self._adj: Optional[Dict[str, List[Tuple[str, float]]]] = None
        self._weights: Dict[LinkKey, float] = {}
        self._trees: Dict[str, SsspTree] = {}
        #: (src, dst, k) -> candidate paths.
        self._yen: Dict[Tuple[str, str, int], Tuple[NodePath, ...]] = {}

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Flush both layers if the topology grew since the last sync."""
        version = self._topo.version
        if version == self._synced_version:
            return
        self._trees.clear()
        self._adj = None
        if self._yen:
            _C_INVALIDATED.inc(len(self._yen))
            self._yen.clear()
        self._synced_version = version

    # ------------------------------------------------------------------
    # SSSP layer
    # ------------------------------------------------------------------
    def _adjacency(self) -> Dict[str, List[Tuple[str, float]]]:
        if self._adj is None:
            topo = self._topo
            adj: Dict[str, List[Tuple[str, float]]] = {
                name: [] for name in topo.nodes}
            weights: Dict[LinkKey, float] = {}
            for pair in topo.duplex_pairs():  # sorted: see _dijkstra doc
                a, b = pair
                w = topo.links[pair].delay_s
                adj[a].append((b, w))
                adj[b].append((a, w))
                weights[(a, b)] = w
                weights[(b, a)] = w
            self._adj = adj
            self._weights = weights
        return self._adj

    def sssp_tree(self, root: str) -> SsspTree:
        """The cached Dijkstra tree rooted at ``root``."""
        self._sync()
        tree = self._trees.get(root)
        if tree is not None:
            _HIT["sssp"].inc()
            return tree
        _MISS["sssp"].inc()
        adj = self._adjacency()
        if root not in adj:
            raise KeyError(f"no node named {root!r} in {self._topo.name}")
        _C_SSSP.inc()
        tree = _dijkstra(adj, root)
        self._trees[root] = tree
        return tree

    def shortest_node_path(self, src: str, dst: str) -> Optional[NodePath]:
        """src -> dst node path, or None when there is no route."""
        self._sync()
        adj = self._adjacency()
        if src not in adj or dst not in adj:
            return None
        return self.sssp_tree(src).path_to(dst)

    def shortest_node_paths_to(self, src: str, dsts: List[str]
                               ) -> Dict[str, Optional[NodePath]]:
        """src -> dst node paths for many destinations in one search.

        Uses the cached full tree when one exists; otherwise runs a
        single early-terminating Dijkstra that stops once every
        destination is finalized.  Partial trees are *not* cached (their
        ``preds`` lists are incomplete — see :func:`_dijkstra`), but the
        paths they yield are bit-identical to the full tree's.
        """
        self._sync()
        adj = self._adjacency()
        if src not in adj:
            return {dst: None for dst in dsts}
        tree = self._trees.get(src)
        if tree is not None:
            _HIT["sssp"].inc()
        else:
            _C_SSSP_PARTIAL.inc()
            tree = _dijkstra(adj, src,
                             targets={dst for dst in dsts if dst in adj})
        return {dst: tree.path_to(dst) if dst in adj else None
                for dst in dsts}

    # ------------------------------------------------------------------
    # Yen layer (k shortest loop-free paths)
    # ------------------------------------------------------------------
    def k_shortest_node_paths(self, src: str, dst: str,
                              k: int) -> Optional[Tuple[NodePath, ...]]:
        """Up to ``k`` loop-free paths in increasing delay order.

        Returns None when src/dst are unknown or disconnected.  The
        candidate set is memoized per ``(src, dst, k)`` until the
        topology grows (see module docs).
        """
        self._sync()
        key = (src, dst, k)
        paths = self._yen.get(key)
        if paths is not None:
            _HIT["yen"].inc()
            return paths
        _MISS["yen"].inc()
        paths = self._yen_kernel(src, dst, k)
        if paths is not None:
            self._yen[key] = paths
        return paths

    def _yen_kernel(self, src: str, dst: str,
                    k: int) -> Optional[Tuple[NodePath, ...]]:
        adj = self._adjacency()
        if src not in adj or dst not in adj:
            return None
        first_tree = self.sssp_tree(src)
        first = first_tree.path_to(dst)
        if first is None:
            return None
        weights = self._weights
        result: List[NodePath] = []
        # Candidate buffer ordered by (cost, generation counter): ties
        # resolve to the earliest-generated candidate, the same rule as
        # networkx's PathBuffer.
        buffer: List[Tuple[float, int, NodePath]] = []
        buffered: Set[NodePath] = set()
        counter = count()
        heapq.heappush(buffer, (first_tree.dist[dst], next(counter), first))
        buffered.add(first)
        while buffer and len(result) < k:
            _, _, path = heapq.heappop(buffer)
            result.append(path)
            if len(result) >= k:
                break
            # Spur generation for the path just accepted.
            ignore_nodes: Set[str] = set()
            ignore_edges: Set[LinkKey] = set()
            root_length = 0.0
            for i in range(1, len(path)):
                root = path[:i]
                spur_node = root[-1]
                for accepted in result:
                    if accepted[:i] == root:
                        ignore_edges.add((accepted[i - 1], accepted[i]))
                spur = self._spur_path(spur_node, dst, ignore_nodes,
                                       ignore_edges)
                if spur is not None:
                    spur_cost, spur_nodes = spur
                    candidate = root[:-1] + spur_nodes
                    if candidate not in buffered:
                        heapq.heappush(
                            buffer,
                            (root_length + spur_cost, next(counter),
                             candidate))
                        buffered.add(candidate)
                ignore_nodes.add(spur_node)
                root_length += weights[(path[i - 1], path[i])]
        return tuple(result)

    def _spur_path(self, source: str, target: str,
                   ignore_nodes: Set[str], ignore_edges: Set[LinkKey]
                   ) -> Optional[Tuple[float, NodePath]]:
        """Shortest source -> target path avoiding the ignore sets.

        Fast path: when the cached unrestricted tree's path already
        avoids everything ignored it is returned as-is (its cost equals
        the unrestricted distance — a lower bound — so it is optimal in
        the restricted graph too).  Otherwise an A* search runs with
        the cached distance-to-target tree as an exact-in-the-limit,
        consistent heuristic.
        """
        if source in ignore_nodes or target in ignore_nodes:
            return None
        tree = self.sssp_tree(source)
        path = tree.path_to(target)
        if path is None:
            return None  # unreachable even without restrictions
        if (not any(n in ignore_nodes for n in path)
                and not any(e in ignore_edges
                            for e in zip(path, path[1:]))):
            return tree.dist[target], path
        return self._restricted_search(source, target, ignore_nodes,
                                       ignore_edges)

    def _restricted_search(self, source: str, target: str,
                           ignore_nodes: Set[str],
                           ignore_edges: Set[LinkKey]
                           ) -> Optional[Tuple[float, NodePath]]:
        adj = self._adjacency()
        h = self.sssp_tree(target).dist  # unrestricted dists: admissible
        if source not in h:
            return None
        dist: Dict[str, float] = {}
        seen: Dict[str, float] = {source: 0.0}
        parent: Dict[str, Optional[str]] = {source: None}
        counter = count(1)
        fringe: List[Tuple[float, int, float, str]] = [
            (h[source], 0, 0.0, source)]
        while fringe:
            _, _, g, v = heapq.heappop(fringe)
            if v in dist:
                continue
            dist[v] = g
            if v == target:
                break
            for u, w in adj[v]:
                if u in ignore_nodes or (v, u) in ignore_edges:
                    continue
                hu = h.get(u)
                if hu is None:
                    continue  # cannot reach target at all
                vu = g + w
                if u in dist:
                    continue
                su = seen.get(u)
                if su is None or vu < su:
                    seen[u] = vu
                    parent[u] = v
                    heapq.heappush(fringe, (vu + hu, next(counter), vu, u))
        if target not in dist:
            return None
        nodes = [target]
        cur = target
        while cur != source:
            cur = parent[cur]  # type: ignore[assignment]
            nodes.append(cur)
        nodes.reverse()
        return dist[target], tuple(nodes)

    # ------------------------------------------------------------------
    # Introspection (tests, DESIGN.md contract)
    # ------------------------------------------------------------------
    @property
    def cached_tree_roots(self) -> List[str]:
        return sorted(self._trees)

    @property
    def cached_candidate_keys(self) -> List[Tuple[str, str, int]]:
        return sorted(self._yen)
