"""Cache-invalidation contract of the versioned route cache.

DESIGN.md "Routing cache" states the contract these tests pin down:
every structural mutation bumps ``Topology.version``; capacity-only
changes keep the delay-derived layers (SSSP trees, Yen candidates);
removals flush trees but drop only the candidate sets whose paths cross
a removed link; additions and delay changes flush everything.  A stale
cached path through a removed link must never be served, and sweep
workers must never leak routing-cache counters between tasks.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.netsim import (GBPS, MS, NoRouteError, Path, Simulator, Topology,
                          install_host_routes, k_shortest_paths,
                          shortest_path)
from repro.sweep.drivers import register_driver
from repro.sweep.runner import run_task


def diamond_topology() -> Topology:
    """Two hosts, four switches, two disjoint equal-ish routes::

        hA - s1 - s2 - s4 - hB      (fast: 1ms per hop)
               \\- s3 -/            (slow: 3ms per hop)
    """
    sim = Simulator(seed=1)
    topo = Topology(sim, name="diamond")
    for name in ("s1", "s2", "s3", "s4"):
        topo.add_switch(name)
    topo.add_duplex_link("s1", "s2", 10 * GBPS, 1 * MS)
    topo.add_duplex_link("s2", "s4", 10 * GBPS, 1 * MS)
    topo.add_duplex_link("s1", "s3", 10 * GBPS, 3 * MS)
    topo.add_duplex_link("s3", "s4", 10 * GBPS, 3 * MS)
    topo.attach_host("hA", "s1")
    topo.attach_host("hB", "s4")
    return topo


# ---------------------------------------------------------------------------
# Version bumps and stale-path protection
# ---------------------------------------------------------------------------
def test_remove_link_invalidates_cached_path():
    topo = diamond_topology()
    before = topo.version
    fast = shortest_path(topo, "hA", "hB")
    assert fast.contains_link("s1", "s2")
    topo.remove_link("s1", "s2")
    assert topo.version > before
    rerouted = shortest_path(topo, "hA", "hB")
    assert not rerouted.contains_link("s1", "s2")
    assert rerouted.contains_link("s1", "s3")


def test_remove_switch_invalidates_cached_path():
    topo = diamond_topology()
    assert shortest_path(topo, "hA", "hB").contains_link("s2", "s4")
    topo.remove_switch("s2")
    assert not shortest_path(topo, "hA", "hB").contains_link("s2", "s4")


def test_removed_link_never_served_from_candidates():
    topo = diamond_topology()
    warm = k_shortest_paths(topo, "hA", "hB", 4)
    assert any(p.contains_link("s1", "s2") for p in warm)
    topo.remove_link("s1", "s2")
    for path in k_shortest_paths(topo, "hA", "hB", 4):
        assert not path.contains_link("s1", "s2")


def test_disconnection_raises_no_route():
    topo = diamond_topology()
    shortest_path(topo, "hA", "hB")  # warm the cache
    topo.remove_switch("s2")
    topo.remove_switch("s3")
    with pytest.raises(NoRouteError):
        shortest_path(topo, "hA", "hB")


def test_link_addition_flushes_cached_paths():
    topo = diamond_topology()
    assert shortest_path(topo, "hA", "hB").hops == 4
    topo.add_duplex_link("s1", "s4", 10 * GBPS, 0.1 * MS)
    shortcut = shortest_path(topo, "hA", "hB")
    assert shortcut.contains_link("s1", "s4")


# ---------------------------------------------------------------------------
# What survives: capacity-only changes and untouched candidate sets
# ---------------------------------------------------------------------------
def test_set_capacity_bumps_version_but_keeps_sssp_state():
    topo = diamond_topology()
    cache = topo.route_cache
    warm = shortest_path(topo, "hA", "hB")
    k_shortest_paths(topo, "hA", "hB", 3)
    roots = cache.cached_tree_roots
    keys = cache.cached_candidate_keys
    sssp_before = telemetry.metrics().get(
        "routing_sssp_recomputes_total").snapshot()["value"]

    before = topo.version
    topo.link("s1", "s2").set_capacity(1 * GBPS)
    assert topo.version > before

    assert shortest_path(topo, "hA", "hB").nodes == warm.nodes
    k_shortest_paths(topo, "hA", "hB", 3)
    assert cache.cached_tree_roots == roots
    assert cache.cached_candidate_keys == keys
    sssp_after = telemetry.metrics().get(
        "routing_sssp_recomputes_total").snapshot()["value"]
    assert sssp_after == sssp_before  # delays unchanged: no recompute


def test_removal_drops_only_crossing_candidate_sets():
    sim = Simulator(seed=2)
    topo = Topology(sim, name="twin")
    # Two independent diamonds sharing no links.
    for name in ("a1", "a2", "a3", "b1", "b2", "b3"):
        topo.add_switch(name)
    for tri in (("a1", "a2", "a3"), ("b1", "b2", "b3")):
        topo.add_duplex_link(tri[0], tri[1], 10 * GBPS, 1 * MS)
        topo.add_duplex_link(tri[1], tri[2], 10 * GBPS, 1 * MS)
        topo.add_duplex_link(tri[0], tri[2], 10 * GBPS, 3 * MS)
    topo.add_duplex_link("a3", "b1", 10 * GBPS, 1 * MS)
    topo.attach_host("hA", "a1")
    topo.attach_host("hB", "b3")
    topo.attach_host("hC", "b1")

    cache = topo.route_cache
    k_shortest_paths(topo, "hA", "hC", 2)   # crosses the a-diamond
    k_shortest_paths(topo, "hC", "hB", 2)   # entirely inside b
    assert len(cache.cached_candidate_keys) == 2

    topo.remove_link("a1", "a2")
    k_shortest_paths(topo, "hC", "hB", 2)   # must hit, not recompute
    hits = telemetry.metrics().get(
        "routing_cache_hits_total").snapshot()["labels"]["yen"]
    assert hits >= 1
    assert ("hA", "hC", 2) not in cache.cached_candidate_keys
    assert ("hC", "hB", 2) in cache.cached_candidate_keys


# ---------------------------------------------------------------------------
# Path helpers (satellite: frozenset-backed contains_link)
# ---------------------------------------------------------------------------
def test_contains_link_directionality():
    path = Path.of(("hA", "s1", "s2", "hB"))
    assert path.contains_link("s1", "s2")
    assert path.contains_link("s2", "s1")           # either direction
    assert not path.contains_link("s2", "s1", either_direction=False)
    assert not path.contains_link("s1", "hB")


# ---------------------------------------------------------------------------
# Sweep-worker isolation: no routing-counter leakage between tasks
# ---------------------------------------------------------------------------
def _routing_driver(seed, params):
    topo = diamond_topology()
    install_host_routes(topo)
    k_shortest_paths(topo, "hA", "hB", 3)
    snap = telemetry.metrics().get(
        "routing_sssp_recomputes_total").snapshot()
    return {"scalars": {"sssp_recomputes": snap["value"]}}


def test_sweep_task_does_not_leak_routing_counters():
    register_driver("routecache_isolation_probe", _routing_driver)
    payload = {"experiment": "routecache_isolation_probe",
               "params": (("k", 3),), "logical_seed": 0, "seed": 0}

    telemetry.reset()
    clean = run_task(dict(payload))

    # Pollute the process-wide registry the way a warm parent process
    # would, then run the same task again: the record must be identical.
    for _ in range(5):
        install_host_routes(diamond_topology())
    polluted = run_task(dict(payload))

    assert clean["result"] == polluted["result"]
    clean_routing = {k: v for k, v in clean["metrics"].items()
                     if k.startswith("routing_")}
    polluted_routing = {k: v for k, v in polluted["metrics"].items()
                        if k.startswith("routing_")}
    assert clean_routing == polluted_routing
    telemetry.reset()
