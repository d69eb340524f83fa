"""Packet-dropping defense booster (§4.1) and the "illusion of success".

Rate-limits or drops traffic of *highly* suspicious flows.  Because
dropping legitimate traffic is collateral damage, the booster only acts
above a suspicion-score threshold (the paper: "such a defense should be
applied only to highly suspicious flows"), and by default it *rate
limits to a trickle* instead of blackholing — from the attacker's side
this looks like the attack succeeding (step 5 of the FastFlex defense:
the "illusion of success"), removing the incentive to roll.

Packet path: a bloom-filter blocklist dropping matching flows' packets.
Fluid path: policing the flow's rate to ``keep_fraction`` of its demand.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Optional

from ..core.booster import Booster, GatedProgram
from ..core.dataflow import DataflowGraph
from ..core.ppm import PpmRole
from ..dataplane.bloom import BloomFilter
from ..dataplane.resources import ResourceVector
from ..netsim.fluid import FluidNetwork
from ..netsim.packet import Packet, PacketKind
from ..netsim.switch import Drop, ProgrammableSwitch, ProgramResult
from ..telemetry import metrics, trace
from .base import bloom_ppm, logic_ppm, parser_ppm
from .lfa_detector import ATTACK_TYPE, MITIGATION_MODE

_MET = metrics()
_TRACE = trace()
_C_FLOWS_POLICED = _MET.counter(
    "booster_flows_policed_total",
    "flows rate-limited to a trickle by the dropper")
_C_PACKETS_DROPPED = _MET.counter(
    "booster_packets_dropped_total",
    "packets dropped by the blocklist on the packet path")

#: The blocklist bloom filter's size and hash count.
BLOOM_BITS = 8192
N_HASHES = 4
#: The fluid-level policer re-scans suspicious flows this often.
CHECK_PERIOD_S = 0.05


class PacketDropperProgram(GatedProgram):
    """Per-switch blocklist: drops DATA packets of blocklisted flows."""

    def __init__(self, booster_name: str, name: str,
                 size_bits: int = BLOOM_BITS):
        blocklist = BloomFilter(f"{name}.blocklist", size_bits=size_bits,
                                n_hashes=N_HASHES)
        super().__init__(booster_name, name,
                         blocklist.resource_requirement())
        self.blocklist = blocklist
        self.packets_dropped = 0
        # 5-tuple -> membership verdict, valid for one blocklist
        # generation (bloom answers only change when its bits do).
        self._probe_cache: Dict[tuple, bool] = {}
        self._probe_mutations = -1

    supports_batch = True

    #: The probe memo is cleared past this many entries so an adversarial
    #: flow stream cannot grow it without bound.
    _PROBE_CACHE_MAX = 1 << 16

    def block(self, flow_key) -> None:
        self.blocklist.add(flow_key)

    def process_enabled(self, switch: ProgrammableSwitch,
                        packet: Packet) -> ProgramResult:
        if packet.kind != PacketKind.DATA:
            return None
        if packet.flow_key in self.blocklist:
            self.packets_dropped += 1
            _C_PACKETS_DROPPED.inc()
            return Drop("suspicious_flow")
        return None

    def process_batch_enabled(self, switch: ProgrammableSwitch,
                              batch) -> None:
        """Pre-filter stage: bloom membership is probed once per unique
        flow (the batch's flow-key column shares one :class:`FlowKey`
        per unique 5-tuple, so hashes are computed once and cached),
        and the per-index scan runs only for windows that actually
        contain blocklisted flows."""
        mask = batch.data_mask()
        keys = batch.flow_keys
        if batch.all_data:
            uniq = batch.unique_flow_keys()
        else:
            uniq = set(compress(keys, mask))
        if not uniq:
            return
        blocklist = self.blocklist
        cache = self._probe_cache
        if blocklist.mutations != self._probe_mutations \
                or len(cache) > self._PROBE_CACHE_MAX:
            cache.clear()
            self._probe_mutations = blocklist.mutations
        cache_get = cache.get
        blocked = set()
        for key in uniq:
            verdict = cache_get(key)
            if verdict is None:
                verdict = cache[key] = key in blocklist
            if verdict:
                blocked.add(key)
        if not blocked:
            return
        # The flow-key column shares one object per unique flow, so the
        # per-index scan can match on C-hashable id() tokens instead of
        # re-invoking FlowKey.__hash__ per packet.
        blocked_ids = set(map(id, blocked))
        if batch.all_data:
            hits = [i for i, t in enumerate(map(id, keys))
                    if t in blocked_ids]
        else:
            hits = [i for i, t in enumerate(map(id, keys))
                    if mask[i] and t in blocked_ids]
        self.packets_dropped += len(hits)
        _C_PACKETS_DROPPED.inc(len(hits))
        for i in hits:
            batch.drop(i, "suspicious_flow")

    def export_state(self) -> Dict:
        return self.blocklist.export_state()

    def import_state(self, state: Dict) -> None:
        self.blocklist.import_state(state)


class PacketDropperBooster(Booster):
    """The mitigation-mode rate limiter / dropper."""

    name = "dropper"
    attack_types = (ATTACK_TYPE,)

    def __init__(self, fluid: Optional[FluidNetwork] = None,
                 drop_score_threshold: float = 0.5,
                 keep_fraction: float = 0.1):
        if not 0 <= keep_fraction <= 1:
            raise ValueError("keep_fraction must be in [0, 1]")
        self.fluid = fluid
        self.drop_score_threshold = drop_score_threshold
        self.keep_fraction = keep_fraction
        self.programs: Dict[str, PacketDropperProgram] = {}
        self.flows_policed = 0
        self._policed: Dict[int, object] = {}

    # ------------------------------------------------------------------
    def dataflow(self) -> DataflowGraph:
        graph = DataflowGraph(self.name)
        graph.add_ppm(parser_ppm(
            self.name, "parser",
            base=("src", "dst", "proto", "sport", "dport")))
        graph.add_ppm(bloom_ppm(
            self.name, "blocklist", size_bits=BLOOM_BITS,
            factory=self._make_program))
        graph.add_ppm(logic_ppm(
            self.name, "policer", PpmRole.MITIGATION,
            ResourceVector(stages=1, sram_mb=0.05, alus=2)))
        graph.add_edge("parser", "blocklist", weight=13)
        graph.add_edge("blocklist", "policer", weight=1)
        return graph

    def _make_program(self, switch: ProgrammableSwitch) -> PacketDropperProgram:
        program = PacketDropperProgram(self.name, f"{self.name}.blocklist")
        self.programs[switch.name] = program
        return program

    # ------------------------------------------------------------------
    def on_deployed(self, deployment) -> None:
        if self.fluid is None:
            return
        deployment.topo.sim.every(CHECK_PERIOD_S, self._police,
                                  deployment, start=CHECK_PERIOD_S)

    def _active(self, deployment) -> bool:
        return bool(deployment.bus.switches_in_mode(ATTACK_TYPE,
                                                    MITIGATION_MODE))

    def _police(self, deployment) -> None:
        if not self._active(deployment):
            if self._policed:
                self._unpolice_all()
            return
        now = deployment.topo.sim.now
        for flow in self.fluid.flows:
            if not flow.active(now) or flow.flow_id in self._policed:
                continue
            if (flow.suspicious
                    and flow.suspicion_score >= self.drop_score_threshold):
                flow.police_rate_bps = self.keep_fraction * flow.demand_bps
                self._policed[flow.flow_id] = flow
                self.flows_policed += 1
                _C_FLOWS_POLICED.inc()
                if _TRACE.enabled:
                    _TRACE.emit(
                        "mitigation", sim_time=now, booster=self.name,
                        action="police", flow_id=flow.flow_id,
                        suspicion_score=round(flow.suspicion_score, 4),
                        police_rate_bps=flow.police_rate_bps)
                for program in self.programs.values():
                    program.block(flow.key)

    def _unpolice_all(self) -> None:
        """Mode is over: lift policing (blooms stay until reset — a bloom
        filter cannot delete; a real deployment swaps in a fresh one)."""
        for flow in self._policed.values():
            flow.police_rate_bps = None
        self._policed.clear()
        for program in self.programs.values():
            program.blocklist.clear()
