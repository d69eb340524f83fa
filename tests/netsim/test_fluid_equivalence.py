"""Equivalence of the optimized allocator against the reference.

The incremental-index :func:`max_min_allocate` must match the
O(rounds × links × flows) :func:`max_min_allocate_reference` — rates,
link_load, and link_loss within 1e-9 relative — across randomized
topology/flow configurations (seeded, so failures reproduce exactly).
"""

import random

import pytest

from repro.netsim import (Path, Simulator, make_flow, max_min_allocate,
                          random_topology, shortest_path)
from tests.oracles.fluid import max_min_allocate_reference

N_CONFIGS = 50


def random_scenario(seed):
    """A random topology plus a mixed flow population."""
    rng = random.Random(seed)
    sim = Simulator(seed=seed)
    n_switches = rng.randint(3, 12)
    n_hosts = rng.randint(2, 10)
    topo = random_topology(sim, n_switches, n_hosts,
                           extra_edges=rng.randint(0, 6),
                           link_capacity=rng.choice([1e6, 1e9, 4e10]),
                           seed=seed)
    hosts = topo.host_names
    flows = []
    for index in range(rng.randint(1, 40)):
        src, dst = rng.sample(hosts, 2) if len(hosts) > 1 else (hosts[0],) * 2
        if src == dst:
            continue
        flow = make_flow(src, dst, rng.uniform(0.0, 5e9),
                         weight=rng.uniform(0.1, 100.0),
                         elastic=rng.random() > 0.2,
                         sport=index)
        roll = rng.random()
        if roll < 0.1:
            pass  # pathless flow
        else:
            flow.set_path(shortest_path(topo, src, dst))
        if rng.random() < 0.15:
            flow.police_rate_bps = rng.uniform(0.0, flow.demand_bps + 1.0)
        flows.append(flow)
    return topo, flows


def assert_close(label, seed, got, want, rel=1e-9):
    scale = max(abs(got), abs(want), 1.0)
    assert abs(got - want) <= rel * scale, (
        f"seed {seed}: {label} diverged: optimized={got!r} "
        f"reference={want!r}")


@pytest.mark.parametrize("seed", range(N_CONFIGS))
def test_optimized_matches_reference(seed):
    topo, flows = random_scenario(seed)
    optimized = max_min_allocate(topo, flows)
    reference = max_min_allocate_reference(topo, flows)

    assert optimized.rates.keys() == reference.rates.keys()
    for fid in reference.rates:
        assert_close(f"rate[{fid}]", seed,
                     optimized.rates[fid], reference.rates[fid])
    assert optimized.link_load.keys() == reference.link_load.keys()
    for key in reference.link_load:
        assert_close(f"link_load[{key}]", seed,
                     optimized.link_load[key], reference.link_load[key])
        assert_close(f"link_loss[{key}]", seed,
                     optimized.link_loss[key], reference.link_loss[key])


def test_equivalence_over_non_chain_paths():
    """Both allocators zero-route flows whose path names a node pair
    with no link (a pinned path whose hops were truncated)."""
    rng = random.Random(99)
    sim = Simulator(seed=99)
    topo = random_topology(sim, 8, 6, extra_edges=5, seed=99)
    hosts = topo.host_names
    flows = []
    stranded = []
    for index in range(20):
        src, dst = rng.sample(hosts, 2)
        flow = make_flow(src, dst, rng.uniform(1e6, 2e9), sport=index)
        path = shortest_path(topo, src, dst)
        if index % 3 == 0 and path.hops >= 3:
            # Skip the second hop: h-s1-s2-...-h becomes h-s2-...-h,
            # and a host's only link is to its gateway.
            path = Path.of(path.nodes[:1] + path.nodes[2:])
            stranded.append(flow)
        flow.set_path(path)
        flows.append(flow)
    assert stranded
    optimized = max_min_allocate(topo, flows)
    reference = max_min_allocate_reference(topo, flows)
    assert optimized.rates == reference.rates
    for flow in stranded:
        assert optimized.rates[flow.flow_id] == 0.0
