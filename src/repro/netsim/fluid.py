"""Fluid (flow-level) bandwidth allocation.

This is the heart of the ns3 substitution (see DESIGN.md): instead of
simulating every data packet of a multi-minute experiment, bulk traffic is
modeled as flow rates recomputed every ``update_interval`` seconds.

The allocator implements **weighted max-min fairness with demand caps**
via progressive filling:

1. Inelastic (UDP) flows charge their full demand to every link on their
   path — they do not back off.
2. Elastic (TCP) flows share the remaining capacity: all unfrozen flows'
   rates grow in proportion to their weights until either a link
   saturates (freezing every flow crossing it) or a flow reaches its
   demand (freezing just that flow).
3. Links whose total offered load exceeds capacity drop the excess; each
   flow's goodput is its rate times the product of survival probabilities
   along its path.

A first-order smoothing filter models TCP's ramping, so throughput
recovers over a few RTT-scale updates after a reroute rather than
instantly — visible as the short dips in the Figure 3 reproduction.

Performance (this is the simulator's hottest path — it runs every 10 ms
of simulated time in every experiment):

* :func:`max_min_allocate` keeps an **incremental link index**: per-link
  unfrozen weight totals and member counts, updated by delta when a flow
  freezes, instead of re-summing every link's membership twice per round.
* Flow link lists are cached on the :class:`~repro.netsim.flows.Flow`
  and :class:`~repro.netsim.routing.Path` objects and invalidated on
  reroute, so a pass never re-materializes ``path.links()``.
* :meth:`FluidNetwork.update` has a **steady-state fast path**: when
  neither the topology version, the flow-set version, nor the active
  flow set changed since the last pass, the previous
  :class:`AllocationResult` is reused and only smoothing/accounting run.

The pre-optimization algorithm (plus the shared epsilon and stall-guard
fixes) is the oracle in ``tests/oracles/fluid.py``; a seeded property
test asserts equivalence within 1e-9 relative across random topologies
and flow mixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..telemetry import metrics, trace
from .engine import PeriodicProcess, Simulator
from .flows import Flow, FlowSet
from .topology import Topology

LinkKey = Tuple[str, str]

# Cached process-wide telemetry (DESIGN.md "Telemetry"): one attribute
# add per epoch / per pass; the steady-state fast path pays exactly two
# counter increments and one flag test, nothing else.
_MET = metrics()
_TRACE = trace()
_C_UPDATES = _MET.counter(
    "fluid_updates_total", "fluid epochs processed (passes + reuses)")
_C_PASSES = _MET.counter(
    "fluid_allocation_passes_total", "actual max-min allocator runs")
_C_FASTPATH_HITS = _MET.counter(
    "fluid_fastpath_hits_total",
    "epochs served by the dirty-flag steady-state fast path")
_C_FASTPATH_MISSES = _MET.counter(
    "fluid_fastpath_misses_total",
    "epochs where changed inputs forced a real allocation pass")
_C_FREEZE_ROUNDS = _MET.counter(
    "fluid_freeze_rounds_total",
    "progressive-filling rounds executed by the optimized allocator")
_C_STALL_FREEZES = _MET.counter(
    "fluid_stall_freezes_total",
    "rounds resolved by the numerical stall guard")

#: Saturation test threshold, as a *fraction of link capacity*.  An
#: absolute epsilon mis-scales against bps-magnitude capacities
#: (1e6–1e10): near-saturated links would never freeze and the filling
#: loop would spin extra rounds shaving off sub-bit residues.
SATURATION_EPS = 1e-9

#: Demand-reached test threshold, as a fraction of the flow's demand.
DEMAND_EPS = 1e-9


@dataclass
class AllocationResult:
    """The outcome of one allocation pass (rates before smoothing)."""

    rates: Dict[int, float] = field(default_factory=dict)
    link_load: Dict[LinkKey, float] = field(default_factory=dict)
    link_loss: Dict[LinkKey, float] = field(default_factory=dict)


def _link_capacities(topo: Topology) -> Dict[LinkKey, float]:
    return {key: link.capacity_bps for key, link in topo.links.items()}


def _compute_losses(load: Dict[LinkKey, float],
                    capacities: Dict[LinkKey, float]) -> Dict[LinkKey, float]:
    return {key: (0.0 if total <= capacities[key]
                  else 1.0 - capacities[key] / total)
            for key, total in load.items()}


def max_min_allocate(topo: Topology, flows: List[Flow]) -> AllocationResult:
    """One-shot weighted max-min allocation over the flows' current paths.

    Flows without a path — or whose path crosses a link that no longer
    exists (e.g. removed by switch repurposing) — are allocated zero.
    Returns instantaneous (unsmoothed) rates plus per-link load and loss.

    Semantically equivalent to the test oracle, but restructured around
    an incremental link index (see module docstring).
    """
    result = AllocationResult()
    capacities = _link_capacities(topo)
    load = dict.fromkeys(capacities, 0.0)
    live_keys = set(load)

    # Split flows once, pairing each with its cached link tuple and its
    # effective demand (constant for the pass — nothing here mutates
    # flows — so it is read once instead of once per filling round);
    # flows crossing removed links are zero-routed up front so the hot
    # loops below never need membership guards.
    inelastic: List[Tuple[Flow, tuple, float]] = []
    elastic: List[Tuple[Flow, tuple, float]] = []
    for flow in flows:
        links = flow.path_links()
        if links is None or not live_keys.issuperset(links):
            result.rates[flow.flow_id] = 0.0
        elif flow.elastic:
            elastic.append((flow, links, flow.effective_demand_bps))
        else:
            inelastic.append((flow, links, flow.effective_demand_bps))

    # Pass 1: inelastic flows charge their (policed) demand outright.
    for flow, links, demand in inelastic:
        result.rates[flow.flow_id] = demand
        for key in links:
            load[key] += demand

    # Pass 2: progressive filling for elastic flows, driven by the
    # incremental link index: per-link unfrozen weight totals and member
    # counts maintained by delta updates as flows freeze.  The unfrozen
    # entries carry (flow, links, demand, demand-reached threshold,
    # weight); the scalar tail is pass-constant, hoisted out of the
    # round loops.
    rate: Dict[int, float] = {}
    members: Dict[LinkKey, List[Flow]] = {}
    link_weight: Dict[LinkKey, float] = {}
    link_count: Dict[LinkKey, int] = {}
    unfrozen: Dict[int, Tuple[Flow, tuple, float, float, float]] = {}
    for flow, links, demand in elastic:
        rate[flow.flow_id] = 0.0
        if demand <= 0:
            continue
        unfrozen[flow.flow_id] = (flow, links, demand,
                                  demand * (1.0 - DEMAND_EPS), flow.weight)
        for key in links:
            if key in link_weight:
                link_weight[key] += flow.weight
                link_count[key] += 1
                members[key].append(flow)
            else:
                link_weight[key] = flow.weight
                link_count[key] = 1
                members[key] = [flow]
    remaining = {key: max(0.0, capacities[key] - load[key])
                 for key in link_weight}
    sat_eps = {key: capacities[key] * SATURATION_EPS for key in link_weight}

    rounds = 0
    while unfrozen:
        rounds += 1
        # Largest uniform per-unit-weight increment before a constraint
        # binds: link headroom per unfrozen weight, or flow headroom.
        delta = float("inf")
        for key, count in link_count.items():
            if count:
                step = remaining[key] / link_weight[key]
                if step < delta:
                    delta = step
        for fid, (_flow, _links, demand, _thresh, weight) in unfrozen.items():
            headroom = (demand - rate[fid]) / weight
            if headroom < delta:
                delta = headroom
        if delta == float("inf"):
            break
        if delta > 0:
            for fid, (_flow, _links, _demand, _thresh, weight) \
                    in unfrozen.items():
                rate[fid] += delta * weight
            for key, count in link_count.items():
                if count:
                    remaining[key] = max(
                        0.0, remaining[key] - delta * link_weight[key])

        # Freeze flows that hit their demand or sit on a saturated link
        # (capacity-relative saturation test).
        saturated = {key for key, count in link_count.items()
                     if count and remaining[key] <= sat_eps[key]}
        newly_frozen = []
        if saturated:
            for fid, (_flow, links, _demand, thresh, _weight) \
                    in unfrozen.items():
                if rate[fid] >= thresh:
                    newly_frozen.append(fid)
                elif not saturated.isdisjoint(links):
                    newly_frozen.append(fid)
        else:
            for fid, (_flow, _links, _demand, thresh, _weight) \
                    in unfrozen.items():
                if rate[fid] >= thresh:
                    newly_frozen.append(fid)
        if not newly_frozen:
            # Numerical stall guard: freeze everything touching the most
            # loaded active link (least relative headroom) to guarantee
            # termination.
            newly_frozen = _stall_freeze(link_count, remaining, capacities,
                                         members, unfrozen)
            if not newly_frozen:
                break
            _C_STALL_FREEZES.inc()
        for fid in newly_frozen:
            _flow, links, _demand, _thresh, weight = unfrozen.pop(fid)
            for key in links:
                link_weight[key] -= weight
                link_count[key] -= 1
                if link_count[key] == 0:
                    # Pin the total so float residue cannot linger.
                    link_weight[key] = 0.0

    _C_FREEZE_ROUNDS.inc(rounds)

    for flow, links, demand in elastic:
        granted = min(rate[flow.flow_id], demand)
        result.rates[flow.flow_id] = granted
        for key in links:
            load[key] += granted

    result.link_load = load
    result.link_loss = _compute_losses(load, capacities)
    return result


def _stall_freeze(link_count: Dict[LinkKey, int],
                  remaining: Dict[LinkKey, float],
                  capacities: Dict[LinkKey, float],
                  members: Dict[LinkKey, List[Flow]],
                  unfrozen: Dict[int, tuple]) -> List[int]:
    """Pick the active link with the least relative headroom and freeze
    every unfrozen flow crossing it."""
    worst = None
    worst_headroom = float("inf")
    for key, count in link_count.items():
        if not count:
            continue
        headroom = remaining[key] / capacities[key]
        if headroom < worst_headroom:
            worst = key
            worst_headroom = headroom
    if worst is None:
        return []
    return [f.flow_id for f in members[worst] if f.flow_id in unfrozen]


class FluidNetwork:
    """Periodically reallocates flow rates and updates link/flow state.

    Parameters
    ----------
    update_interval:
        Seconds between allocation passes.  The Figure 3 experiment uses
        10 ms, two orders of magnitude finer than the baseline's 30 s TE
        period and comparable to the RTT-scale FastFlex mode changes.
    tcp_tau:
        Time constant of the first-order rate smoothing for elastic flows
        (models TCP ramping); inelastic flows change rate instantly.

    Steady-state fast path: an epoch whose allocation inputs are
    unchanged — same topology version, same flow-set version, same set of
    active flows — reuses the previous :class:`AllocationResult` instead
    of re-running the allocator; only smoothing and delivery accounting
    run.  :attr:`allocation_passes` counts actual allocator runs and
    :attr:`updates` counts epochs (their difference is the number of
    epochs the fast path served).
    """

    def __init__(self, topo: Topology, flows: Optional[FlowSet] = None,
                 update_interval: float = 0.01, tcp_tau: float = 0.05):
        if update_interval <= 0:
            raise ValueError("update_interval must be positive")
        self.topo = topo
        self.sim: Simulator = topo.sim
        self.flows = flows if flows is not None else FlowSet()
        self.update_interval = update_interval
        self.tcp_tau = tcp_tau
        self.last_result: Optional[AllocationResult] = None
        self._process: Optional[PeriodicProcess] = None
        self._last_update: Optional[float] = None
        #: Observers called after every update with (now, result).
        self.on_update: list = []
        #: Number of epochs processed (allocation passes + reuses).
        self.updates = 0
        #: Number of actual allocator runs (excludes fast-path reuses).
        self.allocation_passes = 0
        self._seen_topo_version = -1
        self._seen_flow_version = -1
        self._active_ids: Optional[FrozenSet[int]] = None

    # ------------------------------------------------------------------
    def start(self) -> "FluidNetwork":
        """Begin periodic updates (first one immediately)."""
        self._process = self.sim.every(self.update_interval, self.update)
        return self

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    # ------------------------------------------------------------------
    def update(self) -> AllocationResult:
        """Run one allocation pass and commit it to flows and links."""
        now = self.sim.now
        dt = (0.0 if self._last_update is None
              else now - self._last_update)
        self._last_update = now
        self.updates += 1
        _C_UPDATES.inc()

        active = self.flows.active(now)
        active_ids = frozenset(f.flow_id for f in active)
        topo_version = self.topo.version
        flow_version = self.flows.version
        if (self.last_result is None
                or topo_version != self._seen_topo_version
                or flow_version != self._seen_flow_version
                or active_ids != self._active_ids):
            result = max_min_allocate(self.topo, active)
            self.allocation_passes += 1
            _C_PASSES.inc()
            _C_FASTPATH_MISSES.inc()
            self._seen_topo_version = topo_version
            self._seen_flow_version = flow_version
            self._active_ids = active_ids
            if _TRACE.enabled:
                _TRACE.emit(
                    "allocation_pass", sim_time=now,
                    active_flows=len(active),
                    topo_version=topo_version,
                    flow_version=flow_version,
                    pass_number=self.allocation_passes)
        else:
            result = self.last_result
            _C_FASTPATH_HITS.inc()

        # Smooth elastic rates toward their allocation; account delivery.
        # This commit loop runs once per flow per epoch — the dominant
        # *linear* cost of an update — so per-flow attribute traffic is
        # routed through ``flow.__dict__`` directly.  That is safe only
        # because every field written here (rate_bps, goodput_bps,
        # loss_rate, bytes_delivered) is an allocation *output*, outside
        # ``_ALLOC_FIELDS``, for which ``Flow.__setattr__`` is a plain
        # ``object.__setattr__`` with no dirty notification.
        alpha = 1.0 if self.tcp_tau <= 0 or dt <= 0 else \
            1.0 - math.exp(-dt / self.tcp_tau)
        smoothed_load: Dict[LinkKey, float] = {
            key: 0.0 for key in self.topo.links}
        live_keys = set(smoothed_load)
        rates = result.rates
        link_loss = result.link_loss
        for flow in self.flows:
            fd = flow.__dict__
            if not flow.active(now):
                fd["rate_bps"] = 0.0
                fd["goodput_bps"] = 0.0
                fd["loss_rate"] = 0.0
                continue
            links = flow.path_links()
            if links is not None and not live_keys.issuperset(links):
                # The cached path crosses a link that no longer exists
                # (switch repurposing removed it): zero-route the flow
                # until a reroute assigns it a live path.
                fd["rate_bps"] = 0.0
                fd["goodput_bps"] = 0.0
                fd["loss_rate"] = 1.0
                continue
            target = rates.get(fd["flow_id"], 0.0)
            if fd["elastic"]:
                rate = fd["rate_bps"]
                rate += (target - rate) * alpha
            else:
                rate = target
            fd["rate_bps"] = rate
            survival = 1.0
            if links is not None:
                for key in links:
                    smoothed_load[key] += rate
                    survival *= 1.0 - link_loss.get(key, 0.0)
            fd["loss_rate"] = 1.0 - survival
            goodput = rate * survival
            fd["goodput_bps"] = goodput
            fd["bytes_delivered"] = fd["bytes_delivered"] + goodput * dt / 8.0

        # Publish loads so packet-level traffic sees congestion.
        for key, link in self.topo.links.items():
            link.fluid_load_bps = smoothed_load.get(key, 0.0)

        self.last_result = result
        for observer in self.on_update:
            observer(now, result)
        return result

    # ------------------------------------------------------------------
    # Queries used by detectors and experiments
    # ------------------------------------------------------------------
    def link_utilization(self, a: str, b: str) -> float:
        return self.topo.link(a, b).utilization

    def aggregate_goodput(self, flows: List[Flow]) -> float:
        return sum(f.goodput_bps for f in flows)

    def normal_goodput(self, now: Optional[float] = None) -> float:
        now = self.sim.now if now is None else now
        return sum(f.goodput_bps for f in self.flows.normal()
                   if f.active(now))
