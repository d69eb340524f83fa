"""LFA detection booster (§4.1).

Detects link-flooding attacks from two signals, exactly as the paper
prescribes: (a) high load on an adjacent link, and (b) persistent,
low-rate flows toward a destination prefix, found by monitoring per-flow
TCP state in the data plane.

Two faces, one booster:

* **Packet level** — :class:`LfaDetectorProgram` feeds every packet into
  a bounded :class:`~repro.dataplane.flow_table.FlowTable`, whose
  ``persistent_low_rate`` query is signal (b).  Unit tests and the
  data-plane microbenchmarks exercise this path.
* **Fluid level** — a periodic per-switch check reads the same signals
  off the fluid model (link utilization; per-connection rates of the
  flows crossing the hot link).  On detection it marks flows suspicious
  and *initiates a distributed mode change* through the switch's local
  :class:`~repro.core.mode_protocol.ModeChangeAgent` — no controller
  involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Tuple

from ..core.booster import Booster, GatedProgram
from ..core.dataflow import DataflowGraph
from ..core.mode_protocol import NETWORK_WIDE_SCOPE
from ..core.ppm import PpmRole
from ..dataplane.flow_table import FlowTable
from ..dataplane.resources import ResourceVector
from ..netsim.fluid import FluidNetwork
from ..netsim.packet import Packet, PacketKind, TcpFlags
from ..netsim.switch import ProgrammableSwitch, ProgramResult
from ..telemetry import metrics, trace
from .base import flow_table_ppm, logic_ppm, parser_ppm

ATTACK_TYPE = "lfa"
MITIGATION_MODE = "lfa_mitigate"

# Detection thresholds.  Signal (a): an adjacent link at or above
# HIGH_UTIL for SUSTAIN_S, checked every CHECK_PERIOD_S.  Signal (b): a
# crossing flow of at least MIN_CONNECTIONS connections, each below
# LOW_CONN_RATE_BPS.  The all-clear fires once suspicious demand stays
# under CLEAR_FRACTION of the rate at detection.
HIGH_UTIL = 0.9
SUSTAIN_S = 0.1
CHECK_PERIOD_S = 0.02
LOW_CONN_RATE_BPS = 20e6
MIN_CONNECTIONS = 8.0
CLEAR_FRACTION = 0.1
#: Entries of the per-flow TCP table (shared with NetWarden's).
TABLE_CAPACITY = 4096

_MET = metrics()
_TRACE = trace()
_C_DETECTIONS = _MET.counter(
    "booster_detections_total", "attack detections by booster",
    labelnames=("booster",))
_C_FLOWS_FLAGGED = _MET.counter(
    "booster_flows_flagged_total",
    "flows marked suspicious by detection classifiers")
_C_ALL_CLEAR = _MET.counter(
    "booster_all_clear_total",
    "detector-initiated reversions to the default mode")


@dataclass
class Detection:
    """One detection event (for experiments and tests)."""

    time: float
    switch: str
    link: Tuple[str, str]
    utilization: float
    suspicious_flows: int
    attack_rate_bps: float


class LfaDetectorProgram(GatedProgram):
    """Per-switch packet-path detector state (the per-flow TCP table)."""

    supports_batch = True

    def __init__(self, booster_name: str, name: str,
                 capacity: int = TABLE_CAPACITY):
        table = FlowTable(f"{name}.table", capacity=capacity)
        super().__init__(booster_name, name, table.resource_requirement())
        self.table = table

    def process_enabled(self, switch: ProgrammableSwitch,
                        packet: Packet) -> ProgramResult:
        if packet.kind != PacketKind.DATA:
            return None
        flags = packet.tcp_flags
        self.table.observe(
            packet.flow_key, switch.sim.now, size_bytes=packet.size_bytes,
            syn=bool(flags & TcpFlags.SYN), ack=bool(flags & TcpFlags.ACK),
            fin=bool(flags & TcpFlags.FIN), rst=bool(flags & TcpFlags.RST))
        return None

    def process_batch_enabled(self, switch: ProgrammableSwitch,
                              batch) -> None:
        """Vectorized twin: one :meth:`FlowTable.observe_batch` call per
        window.  Flag columns are only materialized when the window
        actually carries TCP flags (all-false flags are a no-op in the
        TCP state machine, so omitting them is byte-identical and keeps
        the table's coalesced no-eviction fast path eligible)."""
        mask = batch.data_mask()
        now = switch.sim.now
        if batch.all_data:
            keys = batch.flow_keys
            sizes = batch.size_bytes
            flags = batch.column("tcp_flags")
        else:
            selected = list(compress(
                zip(batch.flow_keys, batch.size_bytes,
                    batch.column("tcp_flags")), mask))
            if not selected:
                return
            keys = [row[0] for row in selected]
            sizes = [row[1] for row in selected]
            flags = [row[2] for row in selected]
        if not any(flags):
            self.table.observe_batch(keys, now, sizes)
            return
        self.table.observe_batch(
            keys, now, sizes,
            syn=[bool(f & TcpFlags.SYN) for f in flags],
            ack=[bool(f & TcpFlags.ACK) for f in flags],
            fin=[bool(f & TcpFlags.FIN) for f in flags],
            rst=[bool(f & TcpFlags.RST) for f in flags])

    def export_state(self) -> Dict:
        return self.table.export_state()

    def import_state(self, state: Dict) -> None:
        self.table.import_state(state)


class LfaDetectorBooster(Booster):
    """The always-on LFA detector (Figure 2a: detectors stay on)."""

    name = "lfa_detector"
    attack_types = (ATTACK_TYPE,)

    def __init__(self, fluid: Optional[FluidNetwork] = None,
                 persist_s: float = 0.3,
                 clear_sustain_s: float = 1.0,
                 scope: int = NETWORK_WIDE_SCOPE,
                 false_positive_rate: float = 0.0,
                 false_negative_rate: float = 0.0):
        self.fluid = fluid
        self.persist_s = persist_s
        self.clear_sustain_s = clear_sustain_s
        self.scope = scope
        self.false_positive_rate = false_positive_rate
        self.false_negative_rate = false_negative_rate
        self.detections: List[Detection] = []
        #: Set once this booster has an active mitigation it initiated:
        #: (initiating switch, attack rate at detection time).
        self._initiated: Optional[Tuple[str, float]] = None
        self._hot_since: Dict[Tuple[str, str], float] = {}
        self._calm_since: Optional[float] = None

    def always_on(self) -> bool:
        return True

    def modes(self) -> List:
        """The detector defines the composite mitigation mode it triggers:
        rerouting + policing + obfuscation together (Figure 2c)."""
        from ..core.modes import ModeSpec
        return [ModeSpec.of(MITIGATION_MODE, ATTACK_TYPE,
                            boosters_on=("reroute", "dropper",
                                         "obfuscation"))]

    # ------------------------------------------------------------------
    # Declarative face (Figure 1a)
    # ------------------------------------------------------------------
    def dataflow(self) -> DataflowGraph:
        graph = DataflowGraph(self.name)
        graph.add_ppm(parser_ppm(
            self.name, "parser",
            base=("src", "dst", "proto", "sport", "dport", "size_bytes",
                  "tcp_flags")))
        graph.add_ppm(flow_table_ppm(
            self.name, "flow_state", capacity=TABLE_CAPACITY,
            factory=self._make_program))
        graph.add_ppm(logic_ppm(
            self.name, "link_monitor", PpmRole.DETECTION,
            ResourceVector(stages=1, sram_mb=0.05, alus=2)))
        graph.add_ppm(logic_ppm(
            self.name, "classifier", PpmRole.DETECTION,
            ResourceVector(stages=1, sram_mb=0.02, alus=2)))
        graph.add_edge("parser", "flow_state", weight=13)   # 5-tuple bits
        graph.add_edge("flow_state", "classifier", weight=64)
        graph.add_edge("link_monitor", "classifier", weight=32)
        return graph

    def _make_program(self, switch: ProgrammableSwitch) -> LfaDetectorProgram:
        return LfaDetectorProgram(self.name, f"{self.name}.flow_state",
                                  capacity=TABLE_CAPACITY)

    # ------------------------------------------------------------------
    # Runtime face
    # ------------------------------------------------------------------
    def on_deployed(self, deployment) -> None:
        if self.fluid is None:
            return
        sim = deployment.topo.sim
        # The flow-state module may have been consolidated with another
        # booster's equivalent table; resolve through the merge mapping.
        node = deployment.merged.merged_name(f"{self.name}.flow_state")
        detector_switches = deployment.switches_hosting(node)
        for switch_name in detector_switches:
            sim.every(CHECK_PERIOD_S, self._check, deployment,
                      switch_name, start=CHECK_PERIOD_S)

    # The per-switch periodic detection check.
    def _check(self, deployment, switch_name: str) -> None:
        fluid = self.fluid
        topo = deployment.topo
        sim = topo.sim
        switch = topo.switch(switch_name)
        if switch.reconfiguring:
            return

        if self._initiated is not None:
            if self._initiated[0] == switch_name:
                self._check_subsided(deployment, switch_name)
            return

        switch_names = set(topo.switch_names)
        for neighbor in switch.neighbors:
            if neighbor not in switch_names:
                continue
            link_key = (switch_name, neighbor)
            util = topo.link(*link_key).utilization
            if util < HIGH_UTIL:
                self._hot_since.pop(link_key, None)
                continue
            first = self._hot_since.setdefault(link_key, sim.now)
            if sim.now - first < SUSTAIN_S:
                continue
            # Signal (a) confirmed; run signal (b) on the crossing flows.
            suspicious = self._classify(fluid, link_key, sim)
            if not suspicious:
                continue
            attack_rate = sum(f.rate_bps for f in suspicious)
            self.detections.append(Detection(
                time=sim.now, switch=switch_name, link=link_key,
                utilization=util, suspicious_flows=len(suspicious),
                attack_rate_bps=attack_rate))
            _C_DETECTIONS.labels(self.name).inc()
            _C_FLOWS_FLAGGED.inc(len(suspicious))
            if _TRACE.enabled:
                _TRACE.emit(
                    "detection", sim_time=sim.now, booster=self.name,
                    switch=switch_name, link=link_key,
                    utilization=round(util, 4),
                    suspicious_flows=len(suspicious),
                    attack_rate_bps=attack_rate)
            agent = deployment.agent(switch_name)
            if agent.initiate(ATTACK_TYPE, MITIGATION_MODE, scope=self.scope):
                self._initiated = (switch_name, attack_rate)
                self._calm_since = None
            return

    def _classify(self, fluid: FluidNetwork, link_key: Tuple[str, str],
                  sim) -> List:
        """Signal (b): persistent low-rate flows crossing the hot link."""
        suspicious = []
        rng = sim.rng
        for flow in fluid.flows.crossing_link(*link_key):
            if not flow.active(sim.now):
                continue
            per_conn = flow.rate_bps / flow.weight
            age = sim.now - flow.start_time
            # A Crossfire source-destination pair: *many* individually
            # legitimate connections, each low-rate and long-lived (the
            # per-flow TCP table exposes the connection count and rates).
            is_suspect = (per_conn < LOW_CONN_RATE_BPS
                          and flow.weight >= MIN_CONNECTIONS
                          and age >= self.persist_s)
            # Imperfect detectors (the paper: "high false positive/
            # negative rates on such traffic patterns").
            if is_suspect and rng.random() < self.false_negative_rate:
                is_suspect = False
            elif not is_suspect and rng.random() < self.false_positive_rate:
                is_suspect = True
            if is_suspect:
                flow.suspicious = True
                flow.suspicion_score = max(
                    flow.suspicion_score,
                    min(1.0, 1.0 - per_conn / LOW_CONN_RATE_BPS))
                suspicious.append(flow)
        return suspicious

    def _check_subsided(self, deployment, switch_name: str) -> None:
        """Revert to the default mode once the attack traffic is gone
        (Figure 2's step 6: 'as soon as attacks subside')."""
        sim = deployment.topo.sim
        if self._initiated is None:
            raise RuntimeError(
                "_check_subsided called before any mode initiation was "
                "recorded; detection must initiate a mode first")
        _, attack_rate_at_detection = self._initiated
        # Offered (pre-policing) demand: what the attacker still sends,
        # regardless of how much of it the dropper lets through.
        current = sum(
            f.demand_bps for f in self.fluid.flows
            if f.suspicious and f.active(sim.now))
        threshold = CLEAR_FRACTION * max(attack_rate_at_detection, 1.0)
        if current > threshold:
            self._calm_since = None
            return
        if self._calm_since is None:
            self._calm_since = sim.now
            return
        if sim.now - self._calm_since < self.clear_sustain_s:
            return
        agent = deployment.agent(switch_name)
        if agent.initiate(ATTACK_TYPE, "default", scope=self.scope):
            _C_ALL_CLEAR.inc()
            if _TRACE.enabled:
                _TRACE.emit("all_clear", sim_time=sim.now,
                            booster=self.name, switch=switch_name)
            self._initiated = None
            self._calm_since = None
            self._hot_since.clear()
            for flow in self.fluid.flows:
                flow.suspicious = False
                flow.suspicion_score = 0.0
