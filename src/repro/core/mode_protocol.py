"""Distributed mode-change protocol, entirely in the data plane (§3.3).

Mode changes are carried by special probe packets that flood switch to
switch: a detector that has classified an attack *initiates* a change by
applying it locally and emitting :data:`~repro.netsim.packet.PacketKind.
MODE_CHANGE` probes to its neighbors; every switch that applies a
received update (epoch check makes this idempotent) re-emits it to its
other neighbors.  No controller is on the path — propagation completes
at link-RTT timescale, which is the crux of the Figure 3 result.

Region scoping: each probe carries a ``scope`` hop budget; switches
beyond the budget never hear about the change, so mixed-vector attacks
can hold different modes in different regions simultaneously.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..netsim.packet import Packet, PacketKind, Protocol
from ..netsim.switch import Consume, ProgrammableSwitch, ProgramResult, SwitchProgram
from ..dataplane.resources import ResourceVector
from ..telemetry import metrics, trace
from .modes import (DEFAULT_MODE, ModeChangeEvent, ModeEventBus,
                    ModeRegistry, ModeTable)
from .stability import StabilityGuard

# Process-wide probe/transition telemetry (DESIGN.md "Telemetry").
# Probe loss is counted at the link layer (see netsim/links.py), which
# is the only place a drop is actually observed.
_MET = metrics()
_TRACE = trace()
_C_PROBES_SENT = _MET.counter(
    "mode_probes_sent_total", "MODE_CHANGE probes emitted by agents")
_C_PROBES_RECEIVED = _MET.counter(
    "mode_probes_received_total", "MODE_CHANGE probes consumed by agents")
_C_TRANSITIONS = _MET.counter(
    "mode_transitions_total", "mode-table transitions applied",
    labelnames=("cause",))
_C_SUPPRESSED = _MET.counter(
    "mode_changes_suppressed_total",
    "locally initiated changes vetoed by the stability guard")

#: Resource cost of the agent: one stage of logic plus epoch registers.
AGENT_REQUIREMENT = ResourceVector(stages=1, sram_mb=0.05, tcam_kb=0, alus=2)

#: Default hop budget — effectively network-wide for our topologies.
NETWORK_WIDE_SCOPE = 32

#: How many re-advertisement rounds a return to the default mode gets.
DEFAULT_REFRESH_ROUNDS = 5


class ModeChangeAgent(SwitchProgram):
    """The per-switch protocol endpoint.

    Owns the switch's :class:`~repro.core.modes.ModeTable`, consumes
    MODE_CHANGE probes, applies-and-refloods them, and lets local
    detectors initiate changes.  An optional :class:`StabilityGuard`
    vets locally initiated changes against flapping (§6 "Stability").

    **Loss tolerance.**  Mode probes cross the same links as the attack
    traffic and can be dropped; a switch that misses the flood would be
    stuck in the wrong mode.  The *initiating* agent therefore
    re-advertises its change periodically with an incrementing refresh
    sequence: agents re-flood any (epoch, seq) newer than what they last
    forwarded, so a refresh wave reaches switches the original flood
    missed.  Non-default modes are refreshed for as long as they hold;
    a return to default is refreshed a bounded number of rounds.
    """

    def __init__(self, registry: ModeRegistry,
                 bus: Optional[ModeEventBus] = None,
                 guard: Optional[StabilityGuard] = None,
                 readvertise_s: float = 0.5):
        super().__init__("fastflex.mode_agent", AGENT_REQUIREMENT)
        if readvertise_s <= 0:
            raise ValueError("readvertise_s must be positive")
        self.readvertise_s = readvertise_s
        self.registry = registry
        self.mode_table = ModeTable(registry)
        self.bus = bus
        self.guard = guard
        #: The programmable switches this agent floods to.  ``None``
        #: means "my direct switch neighbors" (the fully-programmable
        #: case); in partial deployments, :func:`install_mode_agents`
        #: fills in overlay peers — the nearest programmable switches
        #: through any intervening legacy hardware (§2's incremental
        #: deployment story).
        self.overlay_peers: Optional[List[str]] = None
        self.probes_sent = 0
        self.probes_received = 0
        self.changes_suppressed = 0
        #: Per attack type: the newest (epoch, seq) this agent has
        #: forwarded — the flooding dedup key.
        self._forwarded: Dict[str, tuple] = {}
        #: Changes this agent initiated and still refreshes:
        #: attack_type -> [mode, epoch, seq, scope, rounds_left].
        self._owned: Dict[str, list] = {}
        self._refresh_process = None
        #: Why the in-flight ``mode_table.apply`` happened — read by the
        #: change observer so transitions are traced with their cause.
        self._apply_cause = "unknown"
        self.mode_table.on_change(self._on_transition)

    # ------------------------------------------------------------------
    # SwitchProgram interface
    # ------------------------------------------------------------------
    def on_remove(self, switch: ProgrammableSwitch) -> None:
        if self._refresh_process is not None:
            self._refresh_process.stop()
            self._refresh_process = None
        super().on_remove(switch)

    def process(self, switch: ProgrammableSwitch,
                packet: Packet) -> ProgramResult:
        if packet.kind != PacketKind.MODE_CHANGE:
            return None
        self.probes_received += 1
        _C_PROBES_RECEIVED.inc()
        headers = packet.headers
        if packet.dst != switch.name and packet.dst in switch.routes:
            # In transit to another agent (unicast through legacy
            # switches is possible, but a probe addressed elsewhere that
            # lands here was simply mid-route): forward normally.
            return None
        attack_type = headers["attack_type"]
        self._apply_cause = "probe"
        self.mode_table.apply(attack_type, headers["mode"],
                              headers["epoch"])
        # Flooding dedup on (epoch, seq): re-advertisements with a newer
        # seq re-flood even where the mode was already applied, which is
        # what carries a refresh wave past switches that heard the first
        # flood to switches that missed it.
        key = (headers["epoch"], headers.get("seq", 0))
        scope = headers.get("scope", 0)
        if key > self._forwarded.get(attack_type, (-1, -1)) and scope > 0:
            self._forwarded[attack_type] = key
            self._flood(switch, attack_type, headers["mode"],
                        headers["epoch"], scope - 1,
                        origin=headers.get("origin", switch.name),
                        skip=headers.get("sender"),
                        seq=headers.get("seq", 0))
        return Consume()

    def export_state(self) -> Dict:
        return {
            "modes": dict(self.mode_table.active_modes()),
            "epochs": {attack: self.mode_table.epoch_for(attack)
                       for attack in self.registry.attack_types()},
        }

    def import_state(self, state: Dict) -> None:
        self._apply_cause = "state_import"
        for attack, epoch in state.get("epochs", {}).items():
            mode = state.get("modes", {}).get(attack, "default")
            self.mode_table.apply(attack, mode, epoch)

    # ------------------------------------------------------------------
    # Initiation (called by local detectors)
    # ------------------------------------------------------------------
    def initiate(self, attack_type: str, mode: str,
                 scope: int = NETWORK_WIDE_SCOPE) -> bool:
        """Start a distributed mode change from this switch.

        Returns False if the stability guard suppressed it or the local
        state already supersedes it.
        """
        if self.switch is None:
            raise RuntimeError(f"{self.name} is not installed on a switch")
        now = self.switch.sim.now
        if self.guard is not None and not self.guard.allow_change(
                attack_type, mode, now):
            self.changes_suppressed += 1
            _C_SUPPRESSED.inc()
            if _TRACE.enabled:
                _TRACE.emit("mode_change_suppressed", sim_time=now,
                            switch=self.switch.name,
                            attack_type=attack_type, mode=mode)
            return False
        epoch = self.mode_table.next_epoch(attack_type)
        self._apply_cause = "local_detection"
        applied = self.mode_table.apply(attack_type, mode, epoch)
        if not applied:
            return False
        if self.guard is not None:
            self.guard.record_change(attack_type, mode, now)
        self._forwarded[attack_type] = (epoch, 0)
        rounds = (-1 if mode != DEFAULT_MODE
                  else DEFAULT_REFRESH_ROUNDS)
        self._owned[attack_type] = [mode, epoch, 0, scope, rounds]
        self._ensure_refresh_loop()
        self._flood(self.switch, attack_type, mode, epoch, scope - 1,
                    origin=self.switch.name, skip=None, seq=0)
        return True

    def _ensure_refresh_loop(self) -> None:
        if self._refresh_process is None and self.switch is not None:
            self._refresh_process = self.switch.sim.every(
                self.readvertise_s, self._readvertise,
                start=self.readvertise_s)

    def _readvertise(self) -> None:
        """Re-flood every owned change with a fresh sequence number."""
        if self.switch is None:
            return
        for attack_type in list(self._owned):
            record = self._owned[attack_type]
            mode, epoch, seq, scope, rounds = record
            if epoch != self.mode_table.epoch_for(attack_type):
                # Someone superseded our change; stop refreshing it.
                del self._owned[attack_type]
                continue
            if rounds == 0:
                del self._owned[attack_type]
                continue
            record[2] = seq + 1
            if rounds > 0:
                record[4] = rounds - 1
            self._forwarded[attack_type] = (epoch, record[2])
            self._flood(self.switch, attack_type, mode, epoch,
                        scope - 1, origin=self.switch.name, skip=None,
                        seq=record[2])

    # ------------------------------------------------------------------
    def _flood(self, switch: ProgrammableSwitch, attack_type: str,
               mode: str, epoch: int, scope: int, origin: str,
               skip: Optional[str], seq: int = 0) -> None:
        if self.overlay_peers is not None:
            targets = list(self.overlay_peers)
        else:
            targets = [neighbor for neighbor, link in switch.links.items()
                       if isinstance(link.dst, ProgrammableSwitch)
                       and link.dst.programmable]
        for target in targets:
            if target == skip:
                continue
            probe = Packet(
                src=switch.name, dst=target, size_bytes=64,
                kind=PacketKind.MODE_CHANGE, proto=Protocol.UDP,
                headers={
                    "attack_type": attack_type,
                    "mode": mode,
                    "epoch": epoch,
                    "scope": scope,
                    "origin": origin,
                    "sender": switch.name,
                    "seq": seq,
                },
            )
            probe.created_at = switch.sim.now
            if target in switch.links:
                switch.links[target].send(probe)
                self.probes_sent += 1
                _C_PROBES_SENT.inc()
                continue
            # The peer sits behind legacy hardware: unicast through it.
            next_hop = switch._resolve_next_hop(probe)
            if next_hop is not None:
                switch.send_via(next_hop, probe)
                self.probes_sent += 1
                _C_PROBES_SENT.inc()

    def _on_transition(self, attack_type: str, old: str, new: str,
                       epoch: int) -> None:
        cause = self._apply_cause
        self._apply_cause = "unknown"
        _C_TRANSITIONS.labels(cause).inc()
        if self.switch is None:
            return
        now = self.switch.sim.now
        if _TRACE.enabled:
            _TRACE.emit("mode_transition", sim_time=now,
                        switch=self.switch.name, attack_type=attack_type,
                        old_mode=old, new_mode=new, epoch=epoch,
                        cause=cause)
        if self.bus is not None:
            self.bus.publish(ModeChangeEvent(
                time=now, switch=self.switch.name,
                attack_type=attack_type, old_mode=old, new_mode=new,
                epoch=epoch))


def install_mode_agents(topo, registry: ModeRegistry,
                        bus: Optional[ModeEventBus] = None,
                        guard_factory=None) -> Dict[str, ModeChangeAgent]:
    """Install one agent per *programmable* switch.

    ``guard_factory`` (switch_name -> StabilityGuard) attaches per-switch
    stability guards when provided.  In partial deployments, each agent
    is given its overlay peers — the nearest programmable switches
    reachable through any intervening legacy hardware — so mode probes
    tunnel through legacy switches like ordinary traffic.
    """
    agents: Dict[str, ModeChangeAgent] = {}
    programmable = set(topo.programmable_switch_names)
    partial = programmable != set(topo.switch_names)
    for name in sorted(programmable):
        guard = guard_factory(name) if guard_factory is not None else None
        agent = ModeChangeAgent(registry, bus=bus, guard=guard)
        topo.switch(name).install_program(agent)
        if partial:
            agent.overlay_peers = sorted(
                _overlay_peers(topo, name, programmable))
        agents[name] = agent
    return agents


def _overlay_peers(topo, name: str, programmable: set) -> set:
    """Programmable switches reachable from ``name`` crossing only
    legacy switches (BFS that stops expanding at programmable nodes)."""
    switch_names = set(topo.switch_names)
    peers: set = set()
    visited = {name}
    frontier = [name]
    while frontier:
        current = frontier.pop()
        for neighbor in topo.switch(current).neighbors:
            if neighbor not in switch_names or neighbor in visited:
                continue
            visited.add(neighbor)
            if neighbor in programmable:
                peers.add(neighbor)
            else:
                frontier.append(neighbor)
    return peers
