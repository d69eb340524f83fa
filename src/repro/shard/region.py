"""One :class:`RegionWorld` per partition region.

A region runs an ordinary :class:`~repro.netsim.engine.Simulator` plus a
per-shard :class:`~repro.netsim.fluid.FluidNetwork` over its slice of
the topology; :mod:`repro.shard.coordinator` builds and runs each one
as a single task, in a worker process or inline.

Regions stand alone: every flow's path lies inside its source host's
region (:func:`hosted_counts` refuses any other input), so each flow is
built in exactly one region, on the :class:`~repro.netsim.routing.Path`
the single engine gives it.  Regions share no link and no flow, and
never wait on one another; the result matches
:func:`repro.shard.scenario.run_single` up to float rounding, and with
one region it is byte-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..netsim.engine import Simulator
from ..netsim.flows import Flow, FlowSet, make_flow
from ..netsim.fluid import FluidNetwork
from ..netsim.node import Host
from ..netsim.routing import NoRouteError, Path
from ..netsim.switch import ProgrammableSwitch
from ..netsim.topology import Topology
from .partition import Partition
from .scenario import GoodputSampler, ShardScenario, _set_demand

LinkKey = Tuple[str, str]


class RegionWorld:
    """One region's simulator, fluid model, homed flows and sampler."""

    def __init__(self, sim: Simulator, flow_by_spec: Dict[int, Flow],
                 fluid: FluidNetwork, sampler: GoodputSampler):
        self.sim = sim
        #: Spec index -> the flow homed here (source host in this
        #: region), in spec order.
        self.flow_by_spec = flow_by_spec
        self.fluid = fluid
        self.sampler = sampler

    def home_finals(self) -> List[Tuple[int, List[float]]]:
        """Final per-flow observables for flows homed here, as
        (spec_index, [rate, goodput, bytes, loss]) pairs."""
        return [(idx, [flow.rate_bps, flow.goodput_bps,
                       flow.bytes_delivered, flow.loss_rate])
                for idx, flow in self.flow_by_spec.items()]


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def compute_paths(full: Topology,
                  scenario: ShardScenario) -> List[Tuple[LinkKey, ...]]:
    """Global shortest-path link keys per flow spec, computed once on
    the full topology (identical to what ``build_world`` assigns).

    Specs are grouped by source host so each source costs one
    early-terminating multi-target Dijkstra instead of one full tree
    (bit-identical paths — see ``RouteCache.shortest_node_paths_to``).
    """
    by_src: Dict[str, List[int]] = {}
    for idx, spec in enumerate(scenario.flows):
        by_src.setdefault(spec.src, []).append(idx)
    paths: List[Optional[Tuple[LinkKey, ...]]] = [None] * len(scenario.flows)
    for src in sorted(by_src):
        indices = by_src[src]
        dsts = [scenario.flows[i].dst for i in indices]
        node_paths = full.route_cache.shortest_node_paths_to(src, dsts)
        for i, dst in zip(indices, dsts):
            nodes = node_paths[dst]
            if nodes is None:
                raise NoRouteError(f"no path {src} -> {dst}")
            paths[i] = Path(nodes).link_keys
    return paths  # type: ignore[return-value]


def hosted_counts(scenario: ShardScenario, partition: Partition,
                  paths: List[Tuple[LinkKey, ...]]) -> List[int]:
    """How many flows :func:`build_region` creates per region: one per
    flow homed there (its source host's region).

    Raises ``ValueError`` for the first flow whose path leaves its home
    region: regions never exchange rates, so a crossing flow has no
    region that could allocate it.

    One ``make_flow`` call per homed flow — so the prefix sums give the
    exact ``repro.netsim.flows:_flow_ids`` offset each region's build
    starts at when regions are built in index order from a common
    sequence base.  Every region task installs its offset before it
    builds, so a region gets the same flow ids in whichever process
    builds it (flow ids are allocator tie-breakers, so this is
    byte-identity, not cosmetics).
    """
    assignment = partition.assignment
    counts = [0] * partition.n_regions
    for idx, (spec, links) in enumerate(zip(scenario.flows, paths)):
        home = assignment[spec.src]
        touched = {assignment[node] for key in links for node in key}
        if touched - {home}:
            raise ValueError(
                f"flow {idx} ({spec.src} -> {spec.dst}) crosses regions "
                f"{sorted(touched | {home})}; a sharded run needs every "
                f"flow's path inside its source host's region")
        counts[home] += 1
    return counts


def _subtopology(full: Topology, members: List[str], sim: Simulator,
                 name: str) -> Topology:
    """The induced sub-topology on ``members``, built on ``sim``.

    Switches are recreated with their resource budget and
    programmability but *without* installed programs or routing state;
    hosts keep their gateway only when the gateway is also a member.
    Links with one end outside ``members`` are not copied.
    """
    member_set = set(members)
    missing = member_set - set(full.nodes)
    if missing:
        raise KeyError(f"unknown nodes in subtopology: {sorted(missing)}")
    sub = Topology(sim, name=name)
    for node_name in sorted(member_set):
        node = full.nodes[node_name]
        if isinstance(node, ProgrammableSwitch):
            sub.add_switch(node_name, resources=node.ledger.budget,
                           programmable=node.programmable)
        elif isinstance(node, Host):
            gateway = node.gateway if node.gateway in member_set else None
            sub.add_host(node_name, gateway=gateway)
        else:
            raise TypeError(
                f"cannot extract {type(node).__name__} {node_name!r}")
    for a, b in full.duplex_pairs():
        if a in member_set and b in member_set:
            link = full.links[(a, b)]
            sub.add_duplex_link(a, b, link.capacity_bps, link.delay_s,
                                queue_bytes=link.queue_bytes)
    return sub


def build_region(full: Topology, scenario: ShardScenario,
                 partition: Partition, region_index: int,
                 paths: List[Tuple[LinkKey, ...]]) -> RegionWorld:
    """Build one region's world from the shared full topology.

    ``paths`` is :func:`compute_paths` output, already checked by
    :func:`hosted_counts`.  The caller is responsible for telemetry
    isolation (reset before, capture/restore around).
    """
    assignment = partition.assignment
    sim = Simulator(seed=scenario.seed)
    topo = _subtopology(full, partition.regions[region_index], sim,
                        f"{full.name}/region{region_index}")

    flows = FlowSet()
    flow_by_spec: Dict[int, Flow] = {}
    for idx, spec in enumerate(scenario.flows):
        if assignment[spec.src] != region_index:
            continue
        nodes = (spec.src,) + tuple(b for _, b in paths[idx])
        flow = make_flow(spec.src, spec.dst, spec.demand_bps,
                         sport=spec.sport, path=Path(nodes))
        flows.add(flow)
        flow_by_spec[idx] = flow

    for change in scenario.changes:
        flow = flow_by_spec.get(change.flow_index)
        if flow is not None and change.time_s <= scenario.duration_s:
            sim.schedule_at(change.time_s, _set_demand, flow,
                            change.demand_bps)

    fluid = FluidNetwork(topo, flows,
                         update_interval=scenario.fluid_interval_s,
                         tcp_tau=scenario.tcp_tau)

    # Mirror the single-engine build order: fluid first, sampler second,
    # so their relative event ordering matches run_single exactly.
    fluid.start()
    sampler = GoodputSampler(sim, list(flow_by_spec.values()), [])
    sampler.start(scenario.sample_period_s)

    return RegionWorld(sim=sim, flow_by_spec=flow_by_spec, fluid=fluid,
                       sampler=sampler)
