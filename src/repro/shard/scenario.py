"""Shard scenarios: fluid-only workloads with a single-engine reference.

A :class:`ShardScenario` is a declarative description of a run on a
random topology — topology recipe, flow specs, scheduled demand
changes, fluid/sampling cadence — that both execution paths consume:

* :func:`run_single` builds everything on ONE simulator and runs it to
  the horizon: the single-process reference the determinism contract is
  stated against.
* :func:`repro.shard.coordinator.run_sharded` partitions the same
  scenario across regions; with one region it must reproduce
  :func:`run_single`'s stable record byte-for-byte.

Why ``math.fsum`` for the goodput series: the single engine sums all
flows in one process, while the sharded run sums per-region lists in
region order.  A plain ``sum`` depends on addition order, so the two
could differ in the last ulp; ``fsum`` returns the correctly rounded
true sum, which is order-independent — the one aggregation that can be
byte-identical across any partitioning.  (``FluidNetwork.normal_goodput``
keeps its plain ``sum``: changing it would perturb the pinned figure3
outputs from earlier PRs.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import random
from typing import Any, Dict, List, Optional, Tuple

from ..netsim.engine import Simulator
from ..netsim.flows import Flow, FlowSet, make_flow
from ..netsim.fluid import FluidNetwork
from ..netsim.routing import shortest_path
from ..netsim.topology import Topology, random_topology

GBPS = 1e9
MBPS = 1e6

#: Capacity of every link in a :func:`random_scenario` topology.
LINK_CAPACITY_BPS = 10 * GBPS
#: The demands a :func:`random_scenario` flow draws from.
DEMAND_LEVELS_BPS = (50 * MBPS, 120 * MBPS, 300 * MBPS, 700 * MBPS)


@dataclass
class FlowSpec:
    """One flow, declaratively (paths are computed at build time)."""

    src: str
    dst: str
    demand_bps: float
    sport: int


@dataclass
class DemandChange:
    """Scheduled mutation: at ``time_s`` set flow ``flow_index``'s
    demand to ``demand_bps`` (flow_index is the FlowSpec list index)."""

    time_s: float
    flow_index: int
    demand_bps: float


@dataclass
class ShardScenario:
    """A declarative shard workload on a random topology."""

    topology_params: Dict[str, Any]
    flows: List[FlowSpec]
    seed: int
    duration_s: float
    fluid_interval_s: float
    sample_period_s: float
    changes: List[DemandChange] = field(default_factory=list)
    tcp_tau: float = 0.05

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(
                f"duration_s must be finite and > 0, got {self.duration_s}")


def random_scenario(seed: int = 0, n_switches: int = 50,
                    n_hosts: int = 100, n_flows: int = 500,
                    extra_edges: int = 25,
                    duration_s: float = 2.0,
                    fluid_interval_s: float = 0.1,
                    sample_period_s: float = 0.5,
                    source_hosts: Optional[int] = None) -> ShardScenario:
    """A random-topology workload and no demand changes (callers add
    them with ``dataclasses.replace``).

    Every flow joins two hosts behind the same gateway switch.  Hosts
    follow their gateway into a region, so no flow crosses a region
    boundary: a multi-region run of this scenario has nothing to pin.
    ``source_hosts`` bounds how many distinct hosts originate flows
    (bounding Dijkstra-tree count at path-assignment time).
    """
    for name, value, least in (("n_switches", n_switches, 1),
                               ("n_hosts", n_hosts, 1),
                               ("n_flows", n_flows, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    rng = random.Random(f"random_scenario:{seed}")
    # Rebuild the exact topology the builders will construct (cheap: no
    # simulator events) to group hosts by gateway.
    probe_topo = random_topology(Simulator(seed=seed), n_switches, n_hosts,
                                 extra_edges=extra_edges,
                                 link_capacity=LINK_CAPACITY_BPS, seed=seed)
    hosts_by_switch: Dict[str, List[str]] = {}
    for host_name in probe_topo.host_names:
        gateway = probe_topo.nodes[host_name].gateway
        hosts_by_switch.setdefault(gateway, []).append(host_name)
    for members in hosts_by_switch.values():
        members.sort()
    populated = sorted(hosts_by_switch)
    candidates: List[str] = []
    if source_hosts is not None:
        candidates = sorted(probe_topo.host_names)[:source_hosts]

    def _host_at(switch: str) -> str:
        members = hosts_by_switch[switch]
        return members[rng.randrange(len(members))]

    flows: List[FlowSpec] = []
    attempts = 0
    while len(flows) < n_flows and attempts < 20 * n_flows:
        attempts += 1
        if candidates:
            src = candidates[rng.randrange(len(candidates))]
        else:
            src = _host_at(populated[rng.randrange(len(populated))])
        dst = _host_at(probe_topo.nodes[src].gateway)
        if dst == src:
            continue
        demand = DEMAND_LEVELS_BPS[rng.randrange(len(DEMAND_LEVELS_BPS))]
        flows.append(FlowSpec(src=src, dst=dst, demand_bps=demand,
                              sport=len(flows)))
    return ShardScenario(
        topology_params={"n_switches": n_switches, "n_hosts": n_hosts,
                         "extra_edges": extra_edges,
                         "link_capacity": LINK_CAPACITY_BPS, "seed": seed},
        flows=flows, seed=seed, duration_s=duration_s,
        fluid_interval_s=fluid_interval_s,
        sample_period_s=sample_period_s)


# ----------------------------------------------------------------------
# Building and running
# ----------------------------------------------------------------------

def build_topology(scenario: ShardScenario, sim: Simulator) -> Topology:
    return random_topology(sim, **scenario.topology_params)


def _set_demand(flow: Flow, demand_bps: float) -> None:
    """Scheduled-event target for a :class:`DemandChange`, here and in
    :func:`repro.shard.region.build_region` (module-level so region
    event queues stay checkpoint-picklable)."""
    flow.demand_bps = demand_bps


def build_world(scenario: ShardScenario
                ) -> Tuple[Simulator, Topology, FlowSet, List[Flow]]:
    """Construct the single-engine world: topology, routed flows (spec
    order), and the scheduled demand changes."""
    sim = Simulator(seed=scenario.seed)
    topo = build_topology(scenario, sim)
    flows = FlowSet()
    flow_list: List[Flow] = []
    for spec in scenario.flows:
        flow = make_flow(spec.src, spec.dst, spec.demand_bps,
                         sport=spec.sport)
        flow.set_path(shortest_path(topo, spec.src, spec.dst))
        flows.add(flow)
        flow_list.append(flow)
    for change in scenario.changes:
        sim.schedule_at(change.time_s, _set_demand,
                        flow_list[change.flow_index], change.demand_bps)
    return sim, topo, flows, flow_list


class GoodputSampler:
    """Periodic per-flow goodput sampler, identical on both paths.

    Records raw per-flow goodput lists (normal and attack groups) at
    every sample tick; :func:`aggregate_samples` folds rows with
    ``math.fsum`` so the aggregate is independent of how flows are
    distributed across regions.  Started *after* the fluid process so a
    coincident tick samples post-update state — the same ordering
    ``build_world``-style constructions use for monitors.
    """

    __slots__ = ("sim", "normal_flows", "attack_flows", "records",
                 "_process")

    def __init__(self, sim: Simulator, normal_flows: List[Flow],
                 attack_flows: List[Flow]):
        self.sim = sim
        self.normal_flows = normal_flows
        self.attack_flows = attack_flows
        #: (time, [normal goodputs...], [attack goodputs...]) per tick.
        self.records: List[Tuple[float, List[float], List[float]]] = []
        self._process = None

    def start(self, period_s: float) -> "GoodputSampler":
        self._process = self.sim.every(period_s, self.sample)
        return self

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    def sample(self) -> None:
        self.records.append(
            (self.sim.now,
             [f.goodput_bps for f in self.normal_flows],
             [f.goodput_bps for f in self.attack_flows]))


def flow_finals(flow_list: List[Flow]) -> List[List[float]]:
    """Final per-flow observables, in list (spec) order."""
    return [[f.rate_bps, f.goodput_bps, f.bytes_delivered, f.loss_rate]
            for f in flow_list]


def aggregate_samples(record_lists: List[List[Tuple[float, List[float],
                                                    List[float]]]]
                      ) -> List[List[float]]:
    """Fold one or more samplers' raw records into
    ``[[t, normal_fsum, attack_fsum], ...]`` rows.

    Every sampler must tick the same grid (same period, same horizon).
    ``fsum`` over the concatenated per-flow lists is order-independent,
    so the fold over R regional samplers equals the fold over one global
    sampler — no partitioning or worker count can move a sum by an ulp.
    """
    if not record_lists:
        return []
    lengths = {len(records) for records in record_lists}
    if len(lengths) != 1:
        raise ValueError(
            f"samplers disagree on tick count: {sorted(lengths)}")
    rows: List[List[float]] = []
    for tick in range(lengths.pop()):
        time_s = record_lists[0][tick][0]
        normal: List[float] = []
        attack: List[float] = []
        for records in record_lists:
            row = records[tick]
            if row[0] != time_s:
                raise ValueError(
                    f"samplers disagree on tick time: {row[0]} vs {time_s}")
            normal.extend(row[1])
            attack.extend(row[2])
        rows.append([time_s, math.fsum(normal), math.fsum(attack)])
    return rows


def run_single(scenario: ShardScenario) -> Dict[str, Any]:
    """Run the scenario on one simulator; returns its stable record."""
    sim, topo, flows, flow_list = build_world(scenario)
    fluid = FluidNetwork(topo, flows,
                         update_interval=scenario.fluid_interval_s,
                         tcp_tau=scenario.tcp_tau)
    fluid.start()
    sampler = GoodputSampler(sim, flow_list, [])
    sampler.start(scenario.sample_period_s)
    sim.run(until=scenario.duration_s)
    return {
        "mode": "single",
        "seed": scenario.seed,
        "samples": aggregate_samples([sampler.records]),
        "flows": flow_finals(flow_list),
        "updates": fluid.updates,
        "allocation_passes": fluid.allocation_passes,
    }
