"""Topology obfuscation booster (NetHide-style, §4.1).

"An attacker can easily change the target links if she detects that her
attack has triggered a defense."  When active, this booster answers
traceroute probes from suspicious sources with the *pre-attack* view of
the network: whatever path the static destination tables would have
given the pair, regardless of where the traffic actually flows now.  The
attacker's mapping therefore never changes, defeating the
detect-reroute-and-roll feedback loop (Figure 2d).

The first switch on the probe's path with the booster active handles the
whole exchange: it synthesizes the ICMP time-exceeded reply the claimed
hop would have sent (or a destination-reached reply once the probe's TTL
walks past the claimed path) and consumes the probe.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..core.booster import Booster, GatedProgram
from ..core.dataflow import DataflowGraph
from ..core.ppm import PpmRole
from ..dataplane.resources import ResourceVector
from ..netsim.fluid import FluidNetwork
from ..netsim.packet import Packet, PacketKind, Protocol
from ..netsim.routing import NoRouteError, Path, default_path_for
from ..netsim.switch import Consume, ProgrammableSwitch, ProgramResult
from .base import logic_ppm, parser_ppm
from .lfa_detector import ATTACK_TYPE

#: The suspicious-source set is re-read from the flows this often.
REFRESH_PERIOD_S = 0.05


class ObfuscationProgram(GatedProgram):
    """Per-switch traceroute interceptor."""

    def __init__(self, booster: "TopologyObfuscationBooster", name: str):
        super().__init__(booster.name, name,
                         ResourceVector(stages=2, sram_mb=0.3, tcam_kb=64,
                                        alus=2))
        self.booster = booster
        self.replies_forged = 0

    def process_enabled(self, switch: ProgrammableSwitch,
                        packet: Packet) -> ProgramResult:
        if packet.kind != PacketKind.TRACEROUTE:
            return None
        if not self.booster.applies_to(packet.src):
            return None
        claimed = self.booster.claimed_path(packet.src, packet.dst)
        if claimed is None:
            return None
        probe_ttl = packet.headers.get("probe_ttl")
        if probe_ttl is None:
            return None
        # claimed.nodes = [src, sw1, ..., swN, dst]; TTL k expires at swk.
        switch_hops = list(claimed.nodes[1:-1])
        if probe_ttl <= len(switch_hops):
            reporter = switch_hops[probe_ttl - 1]
            destination_reached = False
        else:
            reporter = packet.dst
            destination_reached = True
        self._forge_reply(switch, packet, reporter, destination_reached)
        self.replies_forged += 1
        return Consume()

    def _forge_reply(self, switch: ProgrammableSwitch, probe: Packet,
                     reporter: str, destination_reached: bool) -> None:
        reply = Packet(
            src=switch.name, dst=probe.src, size_bytes=64,
            kind=PacketKind.ICMP_TTL_EXCEEDED, proto=Protocol.ICMP,
            headers={
                "reporter": reporter,
                "destination_reached": destination_reached,
                "probe_id": probe.headers.get("probe_id"),
                "probe_ttl": probe.headers.get("probe_ttl"),
            })
        reply.created_at = switch.sim.now
        next_hop = switch._resolve_next_hop(reply)
        if next_hop is not None:
            switch.send_via(next_hop, reply)


class TopologyObfuscationBooster(Booster):
    """The NetHide-style defense as a FastFlex booster."""

    name = "obfuscation"
    attack_types = (ATTACK_TYPE,)

    def __init__(self, fluid: Optional[FluidNetwork] = None,
                 obfuscate_all_sources: bool = False):
        self.fluid = fluid
        #: When True every source gets obfuscated replies (pure NetHide);
        #: FastFlex's step (4) applies it only to suspicious flows.
        self.obfuscate_all_sources = obfuscate_all_sources
        self.programs: Dict[str, ObfuscationProgram] = {}
        self.suspicious_sources: Set[str] = set()
        self._claimed_cache: Dict[tuple, Optional[Path]] = {}
        self._topo = None

    # ------------------------------------------------------------------
    def dataflow(self) -> DataflowGraph:
        graph = DataflowGraph(self.name)
        graph.add_ppm(parser_ppm(
            self.name, "parser", base=("src", "dst", "ttl", "proto"),
            custom=("probe_id", "probe_ttl")))
        graph.add_ppm(logic_ppm(
            self.name, "obfuscator", PpmRole.MITIGATION,
            ResourceVector(stages=2, sram_mb=0.3, tcam_kb=64, alus=2),
            factory=self._make_program))
        graph.add_edge("parser", "obfuscator", weight=24)
        return graph

    def _make_program(self, switch: ProgrammableSwitch) -> ObfuscationProgram:
        program = ObfuscationProgram(self, f"{self.name}.obfuscator")
        self.programs[switch.name] = program
        return program

    # ------------------------------------------------------------------
    def on_deployed(self, deployment) -> None:
        self._topo = deployment.topo
        if self.fluid is not None:
            deployment.topo.sim.every(
                REFRESH_PERIOD_S, self._refresh_suspicious,
                start=REFRESH_PERIOD_S)

    def _refresh_suspicious(self) -> None:
        """Track which sources currently have suspicious flows."""
        now = self._topo.sim.now
        self.suspicious_sources = {
            f.src for f in self.fluid.flows
            if f.suspicious and f.active(now)}

    # ------------------------------------------------------------------
    def applies_to(self, src: str) -> bool:
        return self.obfuscate_all_sources or src in self.suspicious_sources

    def claimed_path(self, src: str, dst: str) -> Optional[Path]:
        """The pre-attack path presented to the attacker.

        Computed from the static destination tables (what forwarding gave
        the pair before any defense touched it) and cached — NetHide
        similarly fixes the obfuscated topology when the defense engages.
        """
        key = (src, dst)
        if key not in self._claimed_cache:
            if self._topo is None:
                return None
            try:
                self._claimed_cache[key] = default_path_for(
                    self._topo, src, dst)
            except (NoRouteError, KeyError, TypeError):
                self._claimed_cache[key] = None
        return self._claimed_cache[key]
