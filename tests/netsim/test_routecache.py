"""Cache-invalidation contract of the versioned route cache.

DESIGN.md "Routing cache" states the contract these tests pin down: a
topology only grows while it is built, every addition bumps
``Topology.version``, and the first query after a bump flushes both
layers (SSSP trees and Yen candidate sets) and counts the dropped sets
in ``routing_candidates_invalidated_total``.  Sweep workers must never
leak routing-cache counters between tasks.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.netsim import (GBPS, MS, NoRouteError, Simulator, Topology,
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
# Version bumps flush both layers
# ---------------------------------------------------------------------------
def test_disconnection_raises_no_route():
    topo = diamond_topology()
    topo.add_switch("s9")
    topo.attach_host("hZ", "s9")  # an island: no link to s1..s4
    shortest_path(topo, "hA", "hB")  # warm the cache
    with pytest.raises(NoRouteError):
        shortest_path(topo, "hA", "hZ")
    with pytest.raises(NoRouteError):
        k_shortest_paths(topo, "hA", "hZ", 3)


def test_link_addition_flushes_cached_paths():
    topo = diamond_topology()
    cache = topo.route_cache
    invalidated = telemetry.metrics().get(
        "routing_candidates_invalidated_total")
    assert shortest_path(topo, "hA", "hB").hops == 4
    assert len(k_shortest_paths(topo, "hA", "hB", 3)) == 2
    k_shortest_paths(topo, "hB", "hA", 2)
    assert len(cache.cached_candidate_keys) == 2
    before = invalidated.snapshot()["value"]

    topo.add_duplex_link("s1", "s4", 10 * GBPS, 0.1 * MS)
    shortcut = shortest_path(topo, "hA", "hB")          # sssp layer
    assert shortcut.nodes == ("hA", "s1", "s4", "hB")
    candidates = k_shortest_paths(topo, "hA", "hB", 3)  # yen layer
    assert candidates[0].nodes == shortcut.nodes
    assert len(candidates) == 3
    assert invalidated.snapshot()["value"] - before == 2
    assert cache.cached_candidate_keys == [("hA", "hB", 3)]


def test_repeated_candidate_query_hits():
    topo = diamond_topology()
    hits = telemetry.metrics().get("routing_cache_hits_total")
    first = k_shortest_paths(topo, "hA", "hB", 2)
    before = hits.snapshot()["labels"]["yen"]
    again = k_shortest_paths(topo, "hA", "hB", 2)
    assert hits.snapshot()["labels"]["yen"] == before + 1
    assert [p.nodes for p in again] == [p.nodes for p in first]


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
