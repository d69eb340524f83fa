"""The baseline defense: centralized SDN traffic engineering (§4.3).

"The baseline system uses an SDN controller that performs centralized TE
to reconfigure the network every 30 seconds, which is modeled after a
state-of-the-art LFA defense [Spiffy, 43]."

On every period the controller measures link utilizations, flags flooded
links, and recomputes min-max TE for *all* flows — it cannot tell attack
connections from legitimate ones (indistinguishability), so it
conservatively reroutes everything rather than dropping.  The
reconfiguration is deployed to both layers: fluid flow paths and the
switches' forwarding state (so the attacker's traceroutes observe it —
the hook the rolling attack exploits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.te import TeResult, greedy_min_max_te, rebalance_excluding_links
from ..netsim.flows import Flow
from ..netsim.fluid import FluidNetwork
from ..netsim.routing import install_flow_route, install_path_route
from ..netsim.topology import Topology
from ..telemetry import metrics, phase_timer

LinkKey = Tuple[str, str]

_MET = metrics()
_C_RECONFIGS = _MET.counter(
    "sdn_te_reconfigs_total",
    "periodic SDN-TE controller passes, by mode (steady/congested)",
    labelnames=("mode",))
_C_RECONFIG_STEADY = _C_RECONFIGS.labels("steady")
_C_RECONFIG_CONGESTED = _C_RECONFIGS.labels("congested")

#: Candidate paths per flow in each TE pass.
K_PATHS = 4
#: A link at or above this utilization makes the pass a congested one.
CONGESTION_THRESHOLD = 0.9


@dataclass
class ReconfigRecord:
    """One controller pass (times and decisions, for experiment logs)."""

    time: float
    congested_links: List[LinkKey] = field(default_factory=list)
    max_utilization_before: float = 0.0
    max_utilization_planned: float = 0.0
    flows_rerouted: int = 0


class SdnTeDefense:
    """The periodic centralized controller."""

    def __init__(self, topo: Topology, fluid: FluidNetwork,
                 period_s: float = 30.0,
                 deploy_latency_s: float = 0.5):
        if period_s <= 0:
            raise ValueError("TE period must be positive")
        self.topo = topo
        self.fluid = fluid
        self.sim = topo.sim
        self.period_s = period_s
        #: Time between computing a configuration and it taking effect
        #: (rule installation across the network).
        self.deploy_latency_s = deploy_latency_s
        self.records: List[ReconfigRecord] = []
        self._process = None

    # ------------------------------------------------------------------
    def start(self, first_run_delay: Optional[float] = None) -> "SdnTeDefense":
        delay = self.period_s if first_run_delay is None else first_run_delay
        self._process = self.sim.every(self.period_s, self.reconfigure,
                                       start=delay)
        return self

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    # ------------------------------------------------------------------
    def reconfigure(self) -> ReconfigRecord:
        """One controller pass: measure, recompute, deploy (after the
        installation latency)."""
        now = self.sim.now
        flows = [f for f in self.fluid.flows.active(now)]
        congested = [key for key, link in self.topo.links.items()
                     if link.utilization >= CONGESTION_THRESHOLD]
        max_util_before = max((link.utilization
                               for link in self.topo.links.values()),
                              default=0.0)

        # The TE pass is the controller's hot path: candidate sets come
        # from the topology's versioned route cache, so a pass over an
        # unchanged topology recomputes no shortest paths at all.  The
        # phase histogram makes that visible per run.
        with phase_timer("sdn_te.reconfigure"):
            if congested:
                _C_RECONFIG_CONGESTED.inc()
                te = rebalance_excluding_links(self.topo, flows, congested,
                                               k=K_PATHS, assign=False)
            else:
                _C_RECONFIG_STEADY.inc()
                te = greedy_min_max_te(self.topo, flows, k=K_PATHS,
                                       assign=False)

        record = ReconfigRecord(
            time=now, congested_links=sorted(congested),
            max_utilization_before=max_util_before,
            max_utilization_planned=te.max_utilization)
        self.records.append(record)
        self.sim.schedule(self.deploy_latency_s, self._deploy, te, record)
        return record

    def _deploy(self, te: TeResult, record: ReconfigRecord) -> None:
        """Push the computed configuration into the network."""
        now = self.sim.now
        flows = {f.flow_id: f for f in self.fluid.flows.active(now)}
        moved = 0
        for flow_id, path in te.paths.items():
            flow = flows.get(flow_id)
            if flow is None:
                continue
            if flow.path is None or flow.path.nodes != path.nodes:
                moved += 1
            flow.set_path(path)
            install_flow_route(self.topo, path)
        record.flows_rerouted = moved
        self._refresh_destination_routes(te, flows)

    def _refresh_destination_routes(self, te: TeResult,
                                    flows: Dict[int, Flow]) -> None:
        """Point each destination's switch tables along the path of its
        largest rerouted flow, so probe traffic (traceroute) observes the
        reconfiguration the way it would in a real SDN deployment."""
        biggest: Dict[str, Flow] = {}
        for flow_id, path in te.paths.items():
            flow = flows.get(flow_id)
            if flow is None:
                continue
            incumbent = biggest.get(flow.dst)
            if incumbent is None or flow.demand_bps > incumbent.demand_bps:
                biggest[flow.dst] = flow
        for dst, flow in biggest.items():
            if flow.path is not None:
                install_path_route(self.topo, flow.path, dst=dst)
