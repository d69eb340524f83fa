"""Distributed global rate limiting booster ([62], §3.3).

Enforces an aggregate rate limit per tenant across *all* ingress
switches, even though no single switch sees all of a tenant's traffic.
Each instance counts local per-tenant bytes in a sliding window; a
:class:`~repro.core.sync.DetectorSyncAgent` merges the counts across
instances, and each instance then drops proportionally to how far the
*global* rate exceeds the limit — the canonical example the paper gives
of detection that is only possible with distributed synchronization.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Tuple

from ..core.booster import Booster, GatedProgram
from ..core.dataflow import DataflowGraph
from ..core.modes import ModeSpec
from ..core.ppm import PpmRole
from ..core.sync import DetectorSyncAgent
from ..dataplane.resources import ResourceVector
from ..netsim.packet import Packet, PacketKind
from ..netsim.switch import Drop, ProgrammableSwitch, ProgramResult
from .base import logic_ppm, parser_ppm, sketch_ppm

ATTACK_TYPE = "rate_abuse"
LIMIT_MODE = "global_limit"

#: Header naming the tenant a packet belongs to (set at ingress in a
#: real deployment; tests set it directly).
TENANT_HEADER = "tenant"


class RateLimiterProgram(GatedProgram):
    """Per-switch tenant byte counting plus proportional dropping."""

    def __init__(self, booster: "GlobalRateLimiterBooster", name: str):
        super().__init__(booster.name, name,
                         ResourceVector(stages=2, sram_mb=0.2, alus=3))
        self.booster = booster
        self.window_s = booster.window_s
        self._events: Dict[Hashable, Deque[Tuple[float, int]]] = {}
        self.sync_agent: Optional[DetectorSyncAgent] = None
        self.packets_dropped = 0

    # ------------------------------------------------------------------
    def local_rates(self) -> Dict[Hashable, float]:
        """Per-tenant local rate (bits/s) over the sliding window —
        the counter source handed to the sync agent."""
        if self.switch is None:
            return {}
        now = self.switch.sim.now
        rates: Dict[Hashable, float] = {}
        for tenant, events in self._events.items():
            self._expire(events, now)
            total_bytes = sum(size for _, size in events)
            rates[tenant] = total_bytes * 8 / self.window_s
        return {t: r for t, r in rates.items() if r > 0}

    def global_rate(self, tenant: Hashable) -> float:
        """The tenant's network-wide rate, if a sync agent is attached;
        otherwise just the local rate."""
        if self.sync_agent is not None:
            return self.sync_agent.global_view().get(tenant, 0.0)
        return self.local_rates().get(tenant, 0.0)

    def _expire(self, events: Deque[Tuple[float, int]], now: float) -> None:
        while events and events[0][0] < now - self.window_s:
            events.popleft()

    # ------------------------------------------------------------------
    def process_enabled(self, switch: ProgrammableSwitch,
                        packet: Packet) -> ProgramResult:
        if packet.kind != PacketKind.DATA:
            return None
        tenant = packet.headers.get(TENANT_HEADER)
        if tenant is None:
            return None
        events = self._events.setdefault(tenant, deque())
        now = switch.sim.now
        self._expire(events, now)
        events.append((now, packet.size_bytes))

        limit = self.booster.limit_for(tenant)
        if limit is None:
            return None
        global_rate = self.global_rate(tenant)
        if global_rate <= limit:
            return None
        # Drop with probability proportional to the overshoot, so the
        # admitted aggregate converges to the limit network-wide.
        drop_probability = 1.0 - limit / global_rate
        if switch.sim.rng.random() < drop_probability:
            self.packets_dropped += 1
            return Drop("global_rate_limit")
        return None

    def export_state(self) -> Dict:
        return {"events": {tenant: list(events)
                           for tenant, events in self._events.items()}}

    def import_state(self, state: Dict) -> None:
        for tenant, events in state.get("events", {}).items():
            self._events[tenant] = deque(tuple(e) for e in events)


class GlobalRateLimiterBooster(Booster):
    """The distributed rate limiter."""

    name = "rate_limiter"
    attack_types = (ATTACK_TYPE,)

    def __init__(self, limits: Optional[Dict[Hashable, float]] = None,
                 window_s: float = 1.0, sync_period_s: float = 0.1,
                 always_enforce: bool = True):
        self.limits = dict(limits or {})
        self.window_s = window_s
        self.sync_period_s = sync_period_s
        self._always_enforce = always_enforce
        self.programs: Dict[str, RateLimiterProgram] = {}
        self.sync_agents: Dict[str, DetectorSyncAgent] = {}

    def always_on(self) -> bool:
        return self._always_enforce

    def modes(self) -> List[ModeSpec]:
        return [ModeSpec.of(LIMIT_MODE, ATTACK_TYPE,
                            boosters_on=(self.name,))]

    def limit_for(self, tenant: Hashable) -> Optional[float]:
        return self.limits.get(tenant)

    # ------------------------------------------------------------------
    def dataflow(self) -> DataflowGraph:
        graph = DataflowGraph(self.name)
        graph.add_ppm(parser_ppm(
            self.name, "parser", base=("src", "dst", "size_bytes"),
            custom=(TENANT_HEADER,)))
        graph.add_ppm(sketch_ppm(
            self.name, "tenant_counts", width=1024, depth=4,
            factory=self._make_program))
        graph.add_ppm(logic_ppm(
            self.name, "limiter", PpmRole.MITIGATION,
            ResourceVector(stages=1, sram_mb=0.05, alus=2)))
        graph.add_edge("parser", "tenant_counts", weight=12)
        graph.add_edge("tenant_counts", "limiter", weight=8)
        return graph

    def _make_program(self, switch: ProgrammableSwitch) -> RateLimiterProgram:
        program = RateLimiterProgram(self, f"{self.name}.tenant_counts")
        self.programs[switch.name] = program
        return program

    # ------------------------------------------------------------------
    def on_deployed(self, deployment) -> None:
        """Wire a sync agent next to every limiter instance."""
        peers = sorted(self.programs)
        for switch_name, program in self.programs.items():
            agent = DetectorSyncAgent(
                source=program.local_rates,
                peers=[p for p in peers if p != switch_name],
                sync_period_s=self.sync_period_s,
                name=f"{self.name}.sync")
            deployment.topo.switch(switch_name).install_program(agent)
            program.sync_agent = agent
            self.sync_agents[switch_name] = agent
