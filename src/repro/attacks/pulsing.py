"""Pulsing denial-of-service attacks ([1, 54], Figure 2 caption).

A pulsing attacker alternates short high-intensity bursts with quiet
periods.  Against a naive multimode defense this induces *mode flapping*
— enter mitigation on every burst, fall back to default in every gap —
which is exactly the §6 stability threat the
:class:`~repro.core.stability.StabilityGuard` exists for.  The stability
ablation runs this attacker with and without the guard.
"""

from __future__ import annotations

from typing import List

from ..netsim.flows import make_flow
from ..netsim.fluid import FluidNetwork
from ..netsim.routing import shortest_path
from ..netsim.topology import Topology
from .base import Attacker


class PulsingAttacker(Attacker):
    """Square-wave offered load toward the victim-ward links."""

    def __init__(self, topo: Topology, fluid: FluidNetwork,
                 bots: List[str], decoys: List[str],
                 on_duration_s: float = 1.0, off_duration_s: float = 1.0,
                 connections_per_bot: int = 200,
                 per_connection_bps: float = 10e6):
        super().__init__(topo, fluid)
        if on_duration_s <= 0 or off_duration_s <= 0:
            raise ValueError("pulse durations must be positive")
        self.bots = list(bots)
        self.decoys = list(decoys)
        self.on_duration_s = on_duration_s
        self.off_duration_s = off_duration_s
        self.connections_per_bot = connections_per_bot
        self.per_connection_bps = per_connection_bps
        self.pulses = 0
        self._burst_demand = connections_per_bot * per_connection_bps

    def start(self, delay_s: float = 0.0) -> None:
        """Create the (initially idle) flows and begin pulsing."""
        for index, bot in enumerate(self.bots):
            decoy = self.decoys[index % len(self.decoys)]
            flow = make_flow(
                bot, decoy, demand_bps=0.0,
                weight=float(self.connections_per_bot),
                sport=2048 + index, start_time=self.sim.now)
            flow.set_path(shortest_path(self.topo, bot, decoy))
            self.register_flow(flow)
        self.sim.schedule(delay_s, self._burst_on)

    # ------------------------------------------------------------------
    def _burst_on(self) -> None:
        self.pulses += 1
        self.log("resume", f"pulse {self.pulses} on")
        for flow in self.flows:
            flow.demand_bps = self._burst_demand
        self.sim.schedule(self.on_duration_s, self._burst_off)

    def _burst_off(self) -> None:
        self.log("pause", f"pulse {self.pulses} off")
        for flow in self.flows:
            flow.demand_bps = 0.0
        self.sim.schedule(self.off_duration_s, self._burst_on)
