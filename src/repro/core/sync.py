"""Distributed detection: synchronizing detector views (§3.3).

Some attacks are locally detectable (link flooding — one switch sees its
own links); others are only visible network-wide (global rate limits
[62], network-wide heavy hitters [34]).  For those, FastFlex
"additionally synchronize[s] different detectors' views periodically,
e.g., similarly using probing packets ... while minimizing the amount of
synchronization across detectors".

:class:`DetectorSyncAgent` implements that: each detector periodically
sends a *digest* of its local counters — truncated to the top-``k``
entries to bound probe bytes — to its peer detectors as SYNC packets.
Each agent merges fresh remote digests with its local counters to form a
global view, on which threshold detectors fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..dataplane.resources import ResourceVector
from ..netsim.engine import PeriodicProcess
from ..netsim.packet import Packet, PacketKind, Protocol
from ..netsim.switch import Consume, ProgrammableSwitch, ProgramResult, SwitchProgram

#: One stage of digest logic plus merge registers.
AGENT_REQUIREMENT = ResourceVector(stages=1, sram_mb=0.1, tcam_kb=0, alus=2)

#: Remote views older than this many sync periods are ignored in the
#: global view.
STALENESS_PERIODS = 3

#: Provider of the local counters to synchronize, e.g. a HashPipe's
#: heavy-hitter table or a per-tenant byte counter.
CounterSource = Callable[[], Dict[Hashable, float]]


@dataclass
class SyncStats:
    """Overhead accounting for the sync-ablation benchmark."""

    digests_sent: int = 0
    digests_received: int = 0
    bytes_sent: int = 0
    entries_truncated: int = 0


class DetectorSyncAgent(SwitchProgram):
    """Per-switch view synchronization endpoint."""

    def __init__(self, source: CounterSource, peers: List[str],
                 sync_period_s: float = 0.1, top_k: int = 32,
                 name: str = "fastflex.sync_agent"):
        super().__init__(name, AGENT_REQUIREMENT)
        if sync_period_s <= 0:
            raise ValueError("sync_period_s must be positive")
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.source = source
        self.peers = list(peers)
        self.sync_period_s = sync_period_s
        self.top_k = top_k
        self.stats = SyncStats()
        self._remote_views: Dict[str, Tuple[float, Dict[Hashable, float]]] = {}
        self._process: Optional[PeriodicProcess] = None

    # ------------------------------------------------------------------
    # SwitchProgram interface
    # ------------------------------------------------------------------
    def on_install(self, switch: ProgrammableSwitch) -> None:
        super().on_install(switch)
        self._process = switch.sim.every(
            self.sync_period_s, self._broadcast_digest,
            start=self.sync_period_s)

    def on_remove(self, switch: ProgrammableSwitch) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None
        super().on_remove(switch)

    def process(self, switch: ProgrammableSwitch,
                packet: Packet) -> ProgramResult:
        if packet.kind != PacketKind.SYNC:
            return None
        if packet.dst != switch.name:
            return None  # in transit to another detector; forward normally
        origin = packet.headers["origin"]
        digest = packet.headers["digest"]
        self._remote_views[origin] = (switch.sim.now, dict(digest))
        self.stats.digests_received += 1
        return Consume()

    def export_state(self) -> Dict:
        return {"remote_views": {origin: (t, dict(view))
                                 for origin, (t, view)
                                 in self._remote_views.items()}}

    def import_state(self, state: Dict) -> None:
        for origin, (t, view) in state.get("remote_views", {}).items():
            self._remote_views[origin] = (t, dict(view))

    # ------------------------------------------------------------------
    # Digest exchange
    # ------------------------------------------------------------------
    def _broadcast_digest(self) -> None:
        if self.switch is None:
            return
        digest = self._truncated_digest()
        size = 64 + 12 * len(digest)  # header + (key hash, count) entries
        for peer in self.peers:
            if peer == self.switch.name:
                continue
            packet = Packet(
                src=self.switch.name, dst=peer, size_bytes=size,
                kind=PacketKind.SYNC, proto=Protocol.UDP,
                headers={"origin": self.switch.name, "digest": dict(digest)},
            )
            packet.created_at = self.switch.sim.now
            next_hop = self.switch._resolve_next_hop(packet)
            if next_hop is not None:
                self.switch.send_via(next_hop, packet)
                self.stats.digests_sent += 1
                self.stats.bytes_sent += size

    def _truncated_digest(self) -> Dict[Hashable, float]:
        counters = self.source()
        if len(counters) <= self.top_k:
            return dict(counters)
        ranked = sorted(counters.items(),
                        key=lambda kv: (-kv[1], repr(kv[0])))
        self.stats.entries_truncated += len(counters) - self.top_k
        return dict(ranked[:self.top_k])

    # ------------------------------------------------------------------
    # The merged view detectors threshold on
    # ------------------------------------------------------------------
    def global_view(self) -> Dict[Hashable, float]:
        """Local counters plus every fresh remote digest, merged by sum."""
        if self.switch is None:
            return dict(self.source())
        now = self.switch.sim.now
        merged: Dict[Hashable, float] = dict(self.source())
        staleness_bound_s = STALENESS_PERIODS * self.sync_period_s
        for origin, (t, view) in self._remote_views.items():
            if now - t > staleness_bound_s:
                continue
            for key, value in view.items():
                merged[key] = merged.get(key, 0.0) + value
        return merged

    def global_exceeders(self, threshold: float) -> Dict[Hashable, float]:
        """Keys whose *global* count crosses the threshold — the
        network-wide heavy hitter / global rate limit query."""
        return {key: value for key, value in self.global_view().items()
                if value >= threshold}
