"""Shard scenarios: fluid-only workloads with a single-engine reference.

A :class:`ShardScenario` is a fully declarative description of a run —
topology recipe, flow specs, scheduled demand changes, fluid/sampling
cadence — that both execution paths consume:

* :func:`run_single` builds everything on ONE simulator and runs it to
  the horizon: the single-process reference the determinism contract is
  stated against.
* :func:`repro.shard.coordinator.run_sharded` partitions the same
  scenario across regions; with one region it must reproduce
  :func:`run_single`'s stable record byte-for-byte.

Scenarios are JSON-serializable (:meth:`ShardScenario.to_dict` /
:meth:`ShardScenario.from_dict`); a shard checkpoint carries that form's
digest, so a resume in a fresh process can refuse a different scenario.

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

from dataclasses import asdict, dataclass, field
import math
import random
from typing import Any, Dict, List, Optional, Tuple

from ..netsim.engine import Simulator
from ..netsim.flows import Flow, FlowSet, make_flow
from ..netsim.fluid import FluidNetwork
from ..netsim.routing import shortest_path
from ..netsim.topology import (Topology, figure2_topology, random_topology)

GBPS = 1e9
MBPS = 1e6


@dataclass
class FlowSpec:
    """One flow, declaratively (paths are computed at build time)."""

    src: str
    dst: str
    demand_bps: float
    weight: float = 1.0
    elastic: bool = True
    start_time: float = 0.0
    end_time: Optional[float] = None
    malicious: bool = False
    sport: int = 0


@dataclass
class DemandChange:
    """Scheduled mutation: at ``time_s`` set flow ``flow_index``'s
    demand to ``demand_bps`` (flow_index is the FlowSpec list index)."""

    time_s: float
    flow_index: int
    demand_bps: float


@dataclass
class ShardScenario:
    """A declarative, JSON-serializable shard workload."""

    topology: str = "figure2"
    topology_params: Dict[str, Any] = field(default_factory=dict)
    flows: List[FlowSpec] = field(default_factory=list)
    changes: List[DemandChange] = field(default_factory=list)
    seed: int = 0
    duration_s: float = 8.0
    fluid_interval_s: float = 0.01
    sample_period_s: float = 0.5
    tcp_tau: float = 0.05

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(
                f"duration_s must be finite and > 0, got {self.duration_s}")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardScenario":
        data = dict(payload)
        data["flows"] = [FlowSpec(**f) for f in data.get("flows", [])]
        data["changes"] = [DemandChange(**c)
                           for c in data.get("changes", [])]
        return cls(**data)


# ----------------------------------------------------------------------
# Canned scenarios
# ----------------------------------------------------------------------

def figure3_scenario(seed: int = 0, duration_s: float = 8.0,
                     n_clients: int = 4, n_bots: int = 6,
                     attack_start_s: float = 5.0,
                     fluid_interval_s: float = 0.01,
                     sample_period_s: float = 0.5) -> ShardScenario:
    """The figure3 workload, fluid-only: clients sending to the victim
    over the Figure 2 network, a Crossfire-style bot wave joining at
    ``attack_start_s``, plus seeded mid-run demand churn so the sharded
    allocator faces both active-set changes and version bumps."""
    flows: List[FlowSpec] = []
    for i in range(n_clients):
        flows.append(FlowSpec(src=f"client{i}", dst="victim",
                              demand_bps=1.5 * GBPS, sport=10000 + i))
    for i in range(n_bots):
        flows.append(FlowSpec(src=f"bot{i}", dst="victim",
                              demand_bps=200 * 10 * MBPS, weight=200.0,
                              malicious=True, start_time=attack_start_s,
                              sport=20000 + i))
    rng = random.Random(f"figure3_scenario:{seed}")
    changes: List[DemandChange] = []
    for i in range(n_clients):
        for _ in range(2):
            changes.append(DemandChange(
                time_s=rng.uniform(0.5, max(duration_s - 0.5, 1.0)),
                flow_index=i,
                demand_bps=1.5 * GBPS * rng.choice((0.5, 0.75, 1.25))))
    return ShardScenario(
        topology="figure2",
        topology_params={"n_clients": n_clients, "n_bots": n_bots},
        flows=flows, changes=changes, seed=seed, duration_s=duration_s,
        fluid_interval_s=fluid_interval_s,
        sample_period_s=sample_period_s)


def random_scenario(seed: int = 0, n_switches: int = 50,
                    n_hosts: int = 100, n_flows: int = 500,
                    extra_edges: int = 25,
                    duration_s: float = 2.0,
                    fluid_interval_s: float = 0.1,
                    sample_period_s: float = 0.5,
                    link_capacity_bps: float = 10 * GBPS,
                    demand_levels_bps: Tuple[float, ...] = (
                        50 * MBPS, 120 * MBPS, 300 * MBPS, 700 * MBPS),
                    locality: int = 1,
                    churn_per_epoch: int = 0,
                    source_hosts: Optional[int] = None) -> ShardScenario:
    """A random-topology workload with graph-local flows.

    Flows connect hosts a few switch hops apart (``locality`` bounds the
    BFS radius of the destination's switch from the source's), which is
    what makes partitioning profitable: a low edge cut keeps most flows
    interior to one region.  ``churn_per_epoch`` schedules that many
    demand changes inside every fluid epoch, defeating the steady-state
    fast path on purpose — the benchmark uses it to make allocator
    passes, not smoothing, the dominant cost.  ``source_hosts`` bounds
    how many distinct hosts originate flows (bounding Dijkstra-tree
    count at path-assignment time).
    """
    for name, value, least in (("n_switches", n_switches, 1),
                               ("n_hosts", n_hosts, 1),
                               ("n_flows", n_flows, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    rng = random.Random(f"random_scenario:{seed}")
    # Rebuild the exact topology the builders will construct (cheap: no
    # simulator events) so flow endpoints can be sampled with locality.
    probe_topo = random_topology(Simulator(seed=seed), n_switches, n_hosts,
                                 extra_edges=extra_edges,
                                 link_capacity=link_capacity_bps, seed=seed)
    hosts_by_switch: Dict[str, List[str]] = {}
    for host_name in probe_topo.host_names:
        gateway = probe_topo.nodes[host_name].gateway
        hosts_by_switch.setdefault(gateway, []).append(host_name)
    for members in hosts_by_switch.values():
        members.sort()
    adjacency: Dict[str, List[str]] = {
        name: [] for name in probe_topo.switch_names}
    host_set = set(probe_topo.host_names)
    for a, b in probe_topo.duplex_pairs():
        if a in adjacency and b in adjacency:
            adjacency[a].append(b)
            adjacency[b].append(a)
    populated = sorted(hosts_by_switch)
    candidates: List[str] = []
    if source_hosts is not None:
        candidates = sorted(host_set)[:source_hosts]

    def _near_host(switch: str) -> Optional[str]:
        """A host attached within ``locality`` hops of ``switch``."""
        ring = [switch]
        seen = {switch}
        for _ in range(locality + 1):
            pool = [h for s in ring for h in hosts_by_switch.get(s, ())]
            if pool:
                return pool[rng.randrange(len(pool))]
            nxt = []
            for s in ring:
                for n in adjacency[s]:
                    if n not in seen:
                        seen.add(n)
                        nxt.append(n)
            ring = nxt
        return None

    flows: List[FlowSpec] = []
    attempts = 0
    while len(flows) < n_flows and attempts < 20 * n_flows:
        attempts += 1
        if candidates:
            src = candidates[rng.randrange(len(candidates))]
        else:
            anchor = populated[rng.randrange(len(populated))]
            src = _near_host(anchor)
        if src is None:
            continue
        dst = _near_host(probe_topo.nodes[src].gateway)
        if dst is None or dst == src:
            continue
        demand = demand_levels_bps[rng.randrange(len(demand_levels_bps))]
        flows.append(FlowSpec(src=src, dst=dst, demand_bps=demand,
                              sport=len(flows)))
    changes: List[DemandChange] = []
    if churn_per_epoch > 0 and flows:
        n_epochs = int(duration_s / fluid_interval_s)
        for epoch in range(n_epochs):
            when = (epoch + 0.5) * fluid_interval_s
            for _ in range(churn_per_epoch):
                idx = rng.randrange(len(flows))
                demand = demand_levels_bps[
                    rng.randrange(len(demand_levels_bps))]
                changes.append(DemandChange(time_s=when, flow_index=idx,
                                            demand_bps=demand))
    return ShardScenario(
        topology="random",
        topology_params={"n_switches": n_switches, "n_hosts": n_hosts,
                         "extra_edges": extra_edges,
                         "link_capacity": link_capacity_bps, "seed": seed},
        flows=flows, changes=changes, seed=seed, duration_s=duration_s,
        fluid_interval_s=fluid_interval_s,
        sample_period_s=sample_period_s)


# ----------------------------------------------------------------------
# Building and running
# ----------------------------------------------------------------------

def build_topology(scenario: ShardScenario, sim: Simulator) -> Topology:
    if scenario.topology == "figure2":
        return figure2_topology(sim, **scenario.topology_params).topo
    if scenario.topology == "random":
        return random_topology(sim, **scenario.topology_params)
    raise ValueError(f"unknown scenario topology {scenario.topology!r}")


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
                         sport=spec.sport, weight=spec.weight,
                         elastic=spec.elastic, malicious=spec.malicious,
                         start_time=spec.start_time,
                         end_time=spec.end_time)
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
    sampler = GoodputSampler(
        sim, [f for f in flow_list if not f.malicious],
        [f for f in flow_list if f.malicious])
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
