"""Region workers: one :class:`RegionWorld` per partition region.

A region runs an ordinary :class:`~repro.netsim.engine.Simulator` plus a
per-shard :class:`~repro.netsim.fluid.FluidNetwork` over its slice of
the topology (:meth:`Topology.subtopology`), advanced in conservative
time windows by :mod:`repro.shard.coordinator`.

Every flow is replicated into each region its global path crosses, with
a :class:`LinkSegment` path holding only the region-local link keys.
Each region runs its own allocator over its local links; the
coordinator reconciles crossing flows between windows by pinning them
(``Flow.pinned_rate_bps``) to the minimum rate any hosting region
granted, plus headroom so rates can re-grow.  Cut links are allocated
by no region, which is what makes a multi-region run an approximation
of the single engine (DESIGN.md "Sharded simulation"); with one region
nothing is cut and the run is byte-identical to
:func:`repro.shard.scenario.run_single`.

Regions are *resident*: each lives unpacked inside a long-lived worker
process (or inline in the coordinator when ``workers == 1``) for the
whole run, exchanging only small per-window messages — see
:mod:`repro.shard.workers`.  :func:`pack_state` blobs appear only at
checkpoints and on resume.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..netsim.engine import Simulator
from ..netsim.flows import Flow, FlowSet, make_flow
from ..netsim.fluid import FluidNetwork
from ..netsim.links import Link
from ..netsim.node import Node
from ..netsim.packet import Packet
from ..netsim.topology import Topology
from .partition import Partition
from .scenario import GoodputSampler, ShardScenario, _set_demand

LinkKey = Tuple[str, str]

#: Multiplicative headroom on boundary pins: pinning a crossing flow to
#: exactly its minimum granted rate would trap it there
#: (each region would re-grant at most the pin), so the coordinator pins
#: to ``min_granted * (1 + BOUNDARY_HEADROOM)`` and lets demand cap the
#: rest.  0.25 converges within a few windows without oscillating.
BOUNDARY_HEADROOM = 0.25


class LinkSegment:
    """A path stand-in holding only one region's share of a global path.

    Quacks like :class:`repro.netsim.routing.Path` where the fluid
    allocator is concerned (``link_keys`` attribute, ``links()``
    method), but carries no node sequence — a crossing flow may traverse
    a region in several disjoint runs and only the link charges matter.
    """

    __slots__ = ("src", "dst", "link_keys")

    def __init__(self, src: str, dst: str, link_keys: Tuple[LinkKey, ...]):
        self.src = src
        self.dst = dst
        self.link_keys = tuple(link_keys)

    def links(self) -> List[LinkKey]:
        return list(self.link_keys)

    def __getstate__(self):
        return (self.src, self.dst, self.link_keys)

    def __setstate__(self, state):
        self.src, self.dst, self.link_keys = state

    def __repr__(self) -> str:
        return (f"LinkSegment({self.src}->{self.dst}, "
                f"{len(self.link_keys)} local links)")


class PortalNode(Node):
    """Stand-in for an external neighbor at a region's boundary.

    Named after the real (out-of-region) node so switch forwarding
    resolves unchanged; packets delivered to it are recorded in the
    region outbox as ``(logical_arrival_time, portal_name, packet)``.
    The attaching boundary link keeps its real capacity but zero
    propagation delay, so delivery lands inside the sending window; the
    true boundary delay is added here to form the logical arrival time.
    Under the conservative-window contract (window <= min boundary
    delay) that arrival time is never earlier than the window end, so
    the coordinator can always schedule the injection in the receiving
    region.
    """

    def __init__(self, sim: Simulator, name: str,
                 outbox: List[Tuple[float, str, Packet]]):
        super().__init__(sim, name)
        self.outbox = outbox
        #: True propagation delay of the cut link, per in-region sender.
        self.delays: Dict[str, float] = {}

    def receive(self, packet: Packet,
                from_link: Optional[Link] = None) -> None:
        delay = (self.delays.get(from_link.src.name, 0.0)
                 if from_link is not None else 0.0)
        self.outbox.append((self.sim.now + delay, self.name, packet))


class RegionWorld:
    """One region's simulator, sub-topology, fluid model, and flows."""

    def __init__(self, region_index: int, sim: Simulator,
                 topo: Topology, flows: FlowSet,
                 flow_by_spec: Dict[int, Flow], home_specs: List[int],
                 crossing_specs: List[int], fluid: FluidNetwork,
                 sampler: GoodputSampler,
                 outbox: List[Tuple[float, str, Packet]],
                 portals: Dict[str, PortalNode]):
        self.region_index = region_index
        self.sim = sim
        self.topo = topo
        self.flows = flows
        #: Spec index -> this region's replica of that flow.
        self.flow_by_spec = flow_by_spec
        #: Spec indices homed here (source host in this region); only
        #: the home region samples/reports a flow's goodput, so nothing
        #: is double-counted.
        self.home_specs = home_specs
        #: Spec indices of hosted flows whose global path crosses other
        #: regions (subject to boundary-pin consensus).
        self.crossing_specs = crossing_specs
        self.fluid = fluid
        self.sampler = sampler
        self.outbox = outbox
        self.portals = portals

    # ------------------------------------------------------------------
    def inject(self, payload: Optional[Dict[str, Any]]) -> None:
        """Apply one barrier's worth of coordinator input: boundary pins
        first (they affect the whole next window), then cross-region
        packet arrivals."""
        if not payload:
            return
        pins = payload.get("pins")
        if pins:
            self.set_boundary_pins(pins)
        for arrival, node_name, packet in payload.get("packets", ()):
            node = self.topo.nodes[node_name]
            self.sim.schedule_at(arrival, node.receive, packet)

    def run_window(self, t_end: float) -> None:
        self.sim.run(until=t_end)

    def drain_outbox(self) -> List[Tuple[float, str, Packet]]:
        drained = list(self.outbox)
        del self.outbox[:]
        return drained

    # ------------------------------------------------------------------
    def boundary_report(self) -> Dict[int, float]:
        """Rates this region's allocator granted to its crossing flows
        in the last pass, keyed by spec index."""
        result = self.fluid.last_result
        rates = result.rates if result is not None else {}
        return {idx: rates.get(self.flow_by_spec[idx].flow_id, 0.0)
                for idx in self.crossing_specs}

    def set_boundary_pins(self, pins: Dict[int, Optional[float]]) -> None:
        """Pin crossing flows to coordinator-consensus rates.  ``None``
        unpins.  Assigning ``pinned_rate_bps`` bumps the flow-set
        version, so the next fluid epoch re-runs the allocator with the
        boundary flows pinned — the "re-run with pinned rates" step of
        the conservative sync protocol."""
        for idx in sorted(pins):
            flow = self.flow_by_spec.get(idx)
            if flow is not None:
                flow.pinned_rate_bps = pins[idx]

    # ------------------------------------------------------------------
    def home_finals(self) -> List[Tuple[int, List[float]]]:
        """Final per-flow observables for flows homed here, as
        (spec_index, [rate, goodput, bytes, loss]) pairs."""
        finals = []
        for idx in self.home_specs:
            flow = self.flow_by_spec[idx]
            finals.append((idx, [flow.rate_bps, flow.goodput_bps,
                                 flow.bytes_delivered, flow.loss_rate]))
        return finals


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
    from ..netsim.routing import NoRouteError, Path
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


def _spec_placement(links: Tuple[LinkKey, ...],
                    assignment: Dict[str, int]
                    ) -> Tuple[set, bool]:
    """Where one flow spec's global path lives.

    Returns ``(regions_crossed, crossing)``: the set of regions holding
    at least one interior link of the path, and whether the path spans
    more than one region (or traverses any cut link).
    """
    regions_crossed = {assignment[a] for (a, b) in links
                       if assignment[a] == assignment[b]}
    crossing = len(regions_crossed) > 1 or any(
        assignment[a] != assignment[b] for (a, b) in links)
    return regions_crossed, crossing


def hosted_counts(partition: Partition,
                  paths: List[Tuple[LinkKey, ...]]) -> List[int]:
    """How many flows :func:`build_region` creates per region.

    One ``make_flow`` call per hosted spec — so the prefix sums give the
    exact ``repro.netsim.flows:_flow_ids`` offset each region's build
    starts at when regions are built in index order from a common
    sequence base.  Resident workers building regions concurrently use
    this to install the same flow-id assignment the sequential inline
    build produces (flow ids are allocator tie-breakers, so this is
    byte-identity, not cosmetics).
    """
    assignment = partition.assignment
    counts = [0] * partition.n_regions
    for links in paths:
        regions_crossed, _crossing = _spec_placement(links, assignment)
        for region in regions_crossed:
            counts[region] += 1
    return counts


def build_region(full: Topology, scenario: ShardScenario,
                 partition: Partition, region_index: int,
                 paths: List[Tuple[LinkKey, ...]],
                 exchange_packets: bool = False) -> RegionWorld:
    """Build one region's world from the shared full topology.

    ``paths`` is :func:`compute_paths` output.  The caller is
    responsible for telemetry isolation (reset before, capture/restore
    around).
    """
    assignment = partition.assignment
    members = partition.regions[region_index]
    sim = Simulator(seed=scenario.seed)
    topo = full.subtopology(members, sim=sim,
                            name=f"{full.name}/region{region_index}")

    flows = FlowSet()
    flow_by_spec: Dict[int, Flow] = {}
    home_specs: List[int] = []
    crossing_specs: List[int] = []
    for idx, spec in enumerate(scenario.flows):
        links = paths[idx]
        home = assignment[spec.src]
        regions_crossed, crossing = _spec_placement(links, assignment)
        if region_index not in regions_crossed:
            continue
        flow = make_flow(spec.src, spec.dst, spec.demand_bps,
                         sport=spec.sport, weight=spec.weight,
                         elastic=spec.elastic, malicious=spec.malicious,
                         start_time=spec.start_time, end_time=spec.end_time)
        local_keys = tuple(key for key in links
                           if assignment[key[0]] == region_index
                           and assignment[key[1]] == region_index)
        flow.path = LinkSegment(spec.src, spec.dst, local_keys)
        flows.add(flow)
        flow_by_spec[idx] = flow
        if home == region_index:
            home_specs.append(idx)
        if crossing:
            crossing_specs.append(idx)

    for change in scenario.changes:
        flow = flow_by_spec.get(change.flow_index)
        if flow is not None and change.time_s <= scenario.duration_s:
            sim.schedule_at(change.time_s, _set_demand, flow,
                            change.demand_bps)

    fluid = FluidNetwork(topo, flows,
                         update_interval=scenario.fluid_interval_s,
                         tcp_tau=scenario.tcp_tau)

    outbox: List[Tuple[float, str, Packet]] = []
    portals: Dict[str, PortalNode] = {}
    if exchange_packets:
        for key in partition.boundary_out(region_index):
            inside, outside = key
            if outside not in portals:
                portals[outside] = PortalNode(sim, outside, outbox)
            portal = portals[outside]
            cut = full.links[key]
            # Real capacity, zero propagation: delivery lands inside the
            # sending window and the portal adds the true delay (see
            # PortalNode).  The link is attached node-side only — never
            # registered in ``topo.links`` — so the fluid allocator and
            # graph exports are unaffected.
            stitch = Link(sim, topo.nodes[inside], portal,
                          cut.capacity_bps, 0.0)
            topo.nodes[inside].attach_link(stitch)
            portal.delays[inside] = cut.delay_s

    # Mirror the single-engine build order: fluid first, sampler second,
    # so their relative event ordering matches run_single exactly.
    fluid.start()
    sampler = GoodputSampler(
        sim,
        [flow_by_spec[i] for i in home_specs
         if not flow_by_spec[i].malicious],
        [flow_by_spec[i] for i in home_specs
         if flow_by_spec[i].malicious])
    sampler.start(scenario.sample_period_s)

    return RegionWorld(region_index=region_index, sim=sim, topo=topo,
                       flows=flows, flow_by_spec=flow_by_spec,
                       home_specs=home_specs,
                       crossing_specs=crossing_specs, fluid=fluid,
                       sampler=sampler, outbox=outbox, portals=portals)
