"""Property tests: native SSSP/Yen kernels vs the networkx references.

The contract (DESIGN.md "Routing cache"):

* Distances and equal-cost predecessor sets are **bitwise identical**
  to ``nx.dijkstra_predecessor_and_distance`` — same floating-point
  accumulation order, so installed routing tables (which derive from
  predecessors) are byte-identical to the reference installers.
* Single-path and k-shortest-path queries return the same *costs* as
  networkx; the node sequences themselves may differ only where
  networkx's bidirectional search breaks an equal-cost tie differently
  (the documented ECMP tie-break divergence).  On topologies with
  distinct path costs — including the paper's Figure 2 network — the
  sequences are identical too.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro import telemetry
from repro.core import te
from repro.netsim import (GBPS, MS, Simulator, Topology, figure2_topology,
                          install_fast_reroute_alternates,
                          install_host_routes, install_switch_routes,
                          k_shortest_paths, make_flow, random_topology,
                          shortest_path)
from tests.oracles.routing import (build_graph,
                                   install_fast_reroute_alternates_reference,
                                   install_host_routes_reference,
                                   install_switch_routes_reference,
                                   k_shortest_paths_reference,
                                   shortest_path_reference)

SEEDS = range(50)


def random_weighted_topology(seed: int, n_switches: int = 9,
                             n_hosts: int = 5,
                             extra_edges: int = 5) -> Topology:
    """A connected random topology with randomized per-link delays.

    Distinct delays make equal-cost ties rare, so most assertions are
    exact sequence equality; uniform-delay tie behaviour is covered
    separately below.
    """
    sim = Simulator(seed=seed)
    rng = random.Random(f"routing-equivalence:{seed}")
    topo = Topology(sim, name=f"rand{seed}")
    names = [topo.add_switch(f"sw{i}").name for i in range(n_switches)]
    for i in range(1, n_switches):
        parent = names[rng.randrange(i)]
        topo.add_duplex_link(names[i], parent, 10 * GBPS,
                             rng.uniform(0.5, 5.0) * MS)
    added, attempts = 0, 0
    while added < extra_edges and attempts < 200:
        attempts += 1
        a, b = rng.sample(names, 2)
        if (a, b) not in topo.links:
            topo.add_duplex_link(a, b, 10 * GBPS,
                                 rng.uniform(0.5, 5.0) * MS)
            added += 1
    for i in range(n_hosts):
        topo.attach_host(f"h{i}", names[rng.randrange(n_switches)])
    return topo


def path_cost(topo: Topology, nodes) -> float:
    return sum(topo.link(a, b).delay_s for a, b in zip(nodes, nodes[1:]))


# ---------------------------------------------------------------------------
# Layer 0: the Dijkstra kernel itself — bitwise dist, identical pred sets
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_sssp_tree_matches_networkx_bitwise(seed):
    topo = random_weighted_topology(seed)
    graph = build_graph(topo)
    cache = topo.route_cache
    for root in topo.nodes:
        nx_preds, nx_dist = nx.dijkstra_predecessor_and_distance(
            graph, root, weight="weight")
        tree = cache.sssp_tree(root)
        # Bitwise float equality, not approx: the kernel replicates
        # networkx's accumulation order exactly.
        assert tree.dist == nx_dist
        assert {n: sorted(p) for n, p in tree.preds.items()} == \
               {n: sorted(p) for n, p in nx_preds.items()}


# ---------------------------------------------------------------------------
# Pairwise queries: equal cost always; equal sequence unless a tie
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_shortest_path_equivalence(seed):
    topo = random_weighted_topology(seed)
    hosts = topo.host_names
    for src in hosts:
        for dst in hosts:
            if src == dst:
                continue
            native = shortest_path(topo, src, dst)
            ref = shortest_path_reference(topo, src, dst)
            if native.nodes != ref.nodes:
                # Documented divergence: networkx's bidirectional
                # Dijkstra may break an equal-cost tie differently.
                assert path_cost(topo, native.nodes) == pytest.approx(
                    path_cost(topo, ref.nodes), abs=1e-15)
            assert native.nodes[0] == src and native.nodes[-1] == dst


@pytest.mark.parametrize("seed", SEEDS)
def test_k_shortest_paths_equivalence(seed):
    topo = random_weighted_topology(seed)
    hosts = topo.host_names
    k = 4
    for src in hosts[:3]:
        for dst in hosts:
            if src == dst:
                continue
            native = k_shortest_paths(topo, src, dst, k)
            ref = k_shortest_paths_reference(topo, src, dst, k)
            assert len(native) == len(ref)
            native_costs = [path_cost(topo, p.nodes) for p in native]
            ref_costs = [path_cost(topo, p.nodes) for p in ref]
            # Rank-by-rank cost agreement (ties may reorder sequences).
            for a, b in zip(native_costs, ref_costs):
                assert a == pytest.approx(b, abs=1e-15)
            assert native_costs == sorted(native_costs)
            for p in native:
                assert len(set(p.nodes)) == len(p.nodes)  # loop-free
                for a, b in zip(p.nodes, p.nodes[1:]):
                    assert (a, b) in topo.links


# ---------------------------------------------------------------------------
# Installed tables: byte-identical (pred-set derived, no tie exposure)
# ---------------------------------------------------------------------------
def _tables(topo: Topology):
    out = {}
    for name in topo.switch_names:
        sw = topo.switch(name)
        out[name] = (dict(sw.routes), dict(sw.frr_dst))
    return out


@pytest.mark.parametrize("seed", range(10))
def test_installed_tables_identical(seed):
    native_topo = random_weighted_topology(seed)
    install_host_routes(native_topo)
    install_switch_routes(native_topo)
    install_fast_reroute_alternates(native_topo)

    ref_topo = random_weighted_topology(seed)
    install_host_routes_reference(ref_topo)
    install_switch_routes_reference(ref_topo)
    install_fast_reroute_alternates_reference(ref_topo)

    assert _tables(native_topo) == _tables(ref_topo)


# Uniform delays — maximal tie pressure; tables must still be identical
# because they derive from the (exactly matching) predecessor sets.
@pytest.mark.parametrize("seed", range(5))
def test_installed_tables_identical_uniform_delays(seed):
    def build():
        sim = Simulator(seed=seed)
        return random_topology(sim, n_switches=10, n_hosts=6,
                               extra_edges=8, seed=seed)

    native_topo = build()
    install_host_routes(native_topo)
    install_switch_routes(native_topo)
    install_fast_reroute_alternates(native_topo)

    ref_topo = build()
    install_host_routes_reference(ref_topo)
    install_switch_routes_reference(ref_topo)
    install_fast_reroute_alternates_reference(ref_topo)

    assert _tables(native_topo) == _tables(ref_topo)


# ---------------------------------------------------------------------------
# Figure 2: the experiments' topology — exact sequence equality everywhere
# ---------------------------------------------------------------------------
def test_figure2_exact_equality():
    net = figure2_topology(Simulator(seed=7))
    topo = net.topo
    hosts = topo.host_names
    for src in hosts:
        for dst in hosts:
            if src == dst:
                continue
            assert shortest_path(topo, src, dst).nodes == \
                shortest_path_reference(topo, src, dst).nodes
            for k in (1, 2, 4):
                assert [p.nodes for p in k_shortest_paths(topo, src,
                                                          dst, k)] == \
                    [p.nodes for p in k_shortest_paths_reference(topo, src,
                                                                 dst, k)]


# ---------------------------------------------------------------------------
# TE over cached vs oracle candidates: the periodic-reconfiguration
# workload the cache was built for (repeated passes, plus links added
# between passes so the cache's flush is checked against the oracle)
# ---------------------------------------------------------------------------
def _add_shortcut_link(topo: Topology) -> None:
    """Link the first two non-adjacent switches with a short link."""
    switches = sorted(topo.switch_names)
    a, b = next((a, b) for i, a in enumerate(switches)
                for b in switches[i + 1:] if (a, b) not in topo.links)
    topo.add_duplex_link(a, b, 10 * GBPS, 0.5 * MS)


def test_te_objective_matches_over_oracle_candidates(monkeypatch):
    topo = random_topology(Simulator(seed=42), 50, 60, extra_edges=30,
                           seed=42)
    rng = random.Random(42)
    flows = []
    for index in range(120):
        src, dst = rng.sample(topo.host_names, 2)
        flows.append(make_flow(src, dst, rng.uniform(1e6, 5e9),
                               sport=1024 + index))
    invalidated = telemetry.metrics().get(
        "routing_candidates_invalidated_total")

    def objective():
        return round(te.greedy_min_max_te(topo, flows, k=4,
                                          assign=False).max_utilization, 9)

    # Equal-cost candidate reorderings may pick different paths, but the
    # min-max objective the greedy pass optimizes is tie-invariant.
    for index in range(6):
        dropped = 0
        if index in (2, 4):
            dropped = len(topo.route_cache.cached_candidate_keys)
            assert dropped > 0
            _add_shortcut_link(topo)
        before = invalidated.snapshot()["value"]
        cached = objective()
        assert invalidated.snapshot()["value"] - before == dropped
        with monkeypatch.context() as patch:
            patch.setattr(te, "k_shortest_paths", k_shortest_paths_reference)
            assert objective() == cached


# ---------------------------------------------------------------------------
# Error contract
# ---------------------------------------------------------------------------
def test_k_shortest_paths_rejects_same_endpoint():
    topo = random_weighted_topology(0)
    with pytest.raises(ValueError, match="distinct endpoints"):
        k_shortest_paths(topo, "h0", "h0", 3)
    with pytest.raises(ValueError, match="distinct endpoints"):
        k_shortest_paths_reference(topo, "h0", "h0", 3)
