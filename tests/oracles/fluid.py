"""The pre-optimization fluid allocator, kept as the oracle.

``repro.netsim.fluid.max_min_allocate`` is held to this by
``tests/netsim/test_fluid_equivalence.py`` (50 seeds, 1e-9 relative).
It lived in ``src/`` as ``max_min_allocate_reference`` until its last
non-test caller was retired.
"""

from typing import Dict, List, Tuple

from repro.netsim.flows import Flow
from repro.netsim.fluid import DEMAND_EPS, SATURATION_EPS, AllocationResult
from repro.netsim.topology import Topology

LinkKey = Tuple[str, str]


def max_min_allocate_reference(topo: Topology,
                               flows: List[Flow]) -> AllocationResult:
    """The pre-optimization allocator, kept as the semantic reference.

    O(rounds × links × flows): it re-materializes ``path.links()`` in
    every loop and re-sums per-link weights twice per round.  The
    epsilon handling and the stall guard are shared with the optimized
    :func:`max_min_allocate` so the two stay numerically equivalent (the
    equivalence property test pins this within 1e-9 relative).
    """
    result = AllocationResult()
    capacities = {key: link.capacity_bps for key, link in topo.links.items()}
    load: Dict[LinkKey, float] = {key: 0.0 for key in capacities}

    routable = []
    for flow in flows:
        if flow.path is None or any(key not in load
                                    for key in flow.path.links()):
            result.rates[flow.flow_id] = 0.0
        else:
            routable.append(flow)

    # Pass 1: inelastic flows charge their (policed) demand outright.
    for flow in routable:
        if not flow.elastic:
            result.rates[flow.flow_id] = flow.effective_demand_bps
            for key in flow.path.links():
                load[key] += flow.effective_demand_bps

    # Pass 2: progressive filling for elastic flows.
    elastic = [f for f in routable if f.elastic]
    rate = {f.flow_id: 0.0 for f in elastic}
    flows_on_link: Dict[LinkKey, List[Flow]] = {}
    for flow in elastic:
        if flow.effective_demand_bps <= 0:
            continue
        for key in flow.path.links():
            flows_on_link.setdefault(key, []).append(flow)
    remaining = {key: max(0.0, capacities[key] - load[key])
                 for key in flows_on_link}
    unfrozen = {f.flow_id: f for f in elastic if f.effective_demand_bps > 0}

    while unfrozen:
        delta = float("inf")
        for key, link_members in flows_on_link.items():
            weight_here = sum(f.weight for f in link_members
                              if f.flow_id in unfrozen)
            if weight_here > 0:
                delta = min(delta, remaining[key] / weight_here)
        for flow in unfrozen.values():
            headroom = ((flow.effective_demand_bps - rate[flow.flow_id])
                        / flow.weight)
            delta = min(delta, headroom)
        if delta == float("inf"):
            break
        if delta > 0:
            for flow in unfrozen.values():
                rate[flow.flow_id] += delta * flow.weight
            for key, link_members in flows_on_link.items():
                weight_here = sum(f.weight for f in link_members
                                  if f.flow_id in unfrozen)
                if weight_here > 0:
                    remaining[key] = max(0.0,
                                         remaining[key] - delta * weight_here)

        saturated = {key for key, rem in remaining.items()
                     if rem <= capacities[key] * SATURATION_EPS}
        newly_frozen = []
        for fid, flow in unfrozen.items():
            if rate[fid] >= flow.effective_demand_bps * (1.0 - DEMAND_EPS):
                newly_frozen.append(fid)
                continue
            if any(key in saturated for key in flow.path.links()):
                newly_frozen.append(fid)
        if not newly_frozen:
            # Stall guard (same rule as the optimized allocator): freeze
            # everything touching the most loaded active link.
            worst = None
            worst_headroom = float("inf")
            for key, link_members in flows_on_link.items():
                if not any(f.flow_id in unfrozen for f in link_members):
                    continue
                headroom = remaining[key] / capacities[key]
                if headroom < worst_headroom:
                    worst = key
                    worst_headroom = headroom
            if worst is None:
                break
            newly_frozen = [f.flow_id for f in flows_on_link[worst]
                            if f.flow_id in unfrozen]
        for fid in newly_frozen:
            del unfrozen[fid]

    for flow in elastic:
        result.rates[flow.flow_id] = min(rate[flow.flow_id],
                                         flow.effective_demand_bps)
        for key in flow.path.links():
            load[key] += result.rates[flow.flow_id]

    result.link_load = load
    result.link_loss = {key: (0.0 if total <= capacities[key]
                              else 1.0 - capacities[key] / total)
                        for key, total in load.items()}
    return result
