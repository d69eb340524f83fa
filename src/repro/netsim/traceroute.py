"""Traceroute through the simulated network.

The Crossfire attacker maps the topology by tracerouting to public servers
near the victim (Section 4).  :class:`TracerouteClient` reproduces that:
it launches TTL-limited probes from a host, collects the ICMP
time-exceeded replies, and assembles the reported path.

Crucially, the *reported* path is whatever the switches' ICMP reporters
say — when the NetHide-style obfuscation booster is active, the reported
path diverges from the real one, which is exactly how FastFlex hides its
rerouting from the attacker.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .node import Host
from .packet import Packet, PacketKind, Protocol
from .topology import Topology

_trace_ids = itertools.count(1)

#: Gap between successive TTL probes of one traceroute.
PROBE_SPACING_S = 0.001


@dataclass
class TracerouteResult:
    """The outcome of one traceroute run."""

    src: str
    dst: str
    #: Reporter names indexed by TTL (1-based); missing TTLs yield ``None``.
    hops_by_ttl: Dict[int, str] = field(default_factory=dict)
    reached: bool = False
    #: Lowest TTL at which the destination itself replied.
    reached_ttl: Optional[int] = None
    completed_at: float = 0.0

    @property
    def path(self) -> List[str]:
        """Reported hops in TTL order, up to the first gap or the first
        TTL at which the destination answered (higher-TTL probes that also
        reach the destination are redundant, as in real traceroute)."""
        hops = []
        for ttl in sorted(self.hops_by_ttl):
            if ttl != len(hops) + 1:
                break
            hops.append(self.hops_by_ttl[ttl])
            if self.reached_ttl is not None and ttl >= self.reached_ttl:
                break
        return hops


class TracerouteClient:
    """Issues traceroutes from one host and gathers the replies."""

    def __init__(self, topo: Topology, host: str, timeout_s: float = 0.5):
        self.topo = topo
        self.sim = topo.sim
        self.host: Host = topo.host(host)
        self.timeout_s = timeout_s
        self._pending: Dict[int, _PendingTrace] = {}
        self.host.on_packet(self._on_packet)

    # ------------------------------------------------------------------
    def trace(self, dst: str, max_ttl: int = 16,
              callback: Optional[Callable[[TracerouteResult], None]] = None
              ) -> int:
        """Start a traceroute; returns its id.  ``callback`` fires when the
        destination replies or the timeout lapses."""
        trace_id = next(_trace_ids)
        pending = _PendingTrace(
            result=TracerouteResult(src=self.host.name, dst=dst),
            callback=callback, max_ttl=max_ttl)
        self._pending[trace_id] = pending
        for ttl in range(1, max_ttl + 1):
            delay = (ttl - 1) * PROBE_SPACING_S
            self.sim.schedule(delay, self._send_probe, trace_id, dst, ttl)
        self.sim.schedule(self.timeout_s, self._finish, trace_id)
        return trace_id

    def result(self, trace_id: int) -> Optional[TracerouteResult]:
        pending = self._pending.get(trace_id)
        return pending.result if pending is not None else None

    # ------------------------------------------------------------------
    def _send_probe(self, trace_id: int, dst: str, ttl: int) -> None:
        pending = self._pending.get(trace_id)
        if pending is None or pending.done:
            return
        probe = Packet(
            src=self.host.name, dst=dst, size_bytes=64,
            kind=PacketKind.TRACEROUTE, proto=Protocol.UDP,
            ttl=ttl,
            dport=33434 + ttl,
            headers={"probe_id": trace_id, "probe_ttl": ttl},
        )
        self.host.originate(probe)

    def _on_packet(self, packet: Packet) -> None:
        if packet.kind != PacketKind.ICMP_TTL_EXCEEDED:
            return
        trace_id = packet.headers.get("probe_id")
        pending = self._pending.get(trace_id)
        if pending is None or pending.done:
            return
        ttl = packet.headers.get("probe_ttl")
        reporter = packet.headers.get("reporter")
        if ttl is not None and reporter is not None:
            pending.result.hops_by_ttl.setdefault(ttl, reporter)
        if packet.headers.get("destination_reached"):
            pending.result.reached = True
            if ttl is not None:
                current = pending.result.reached_ttl
                pending.result.reached_ttl = (
                    ttl if current is None else min(current, ttl))
            # Wait a beat for stragglers with smaller TTLs, then finish.
            self.sim.schedule(2 * PROBE_SPACING_S,
                              self._finish, trace_id)

    def _finish(self, trace_id: int) -> None:
        pending = self._pending.get(trace_id)
        if pending is None or pending.done:
            return
        pending.done = True
        pending.result.completed_at = self.sim.now
        if pending.callback is not None:
            pending.callback(pending.result)


@dataclass
class _PendingTrace:
    result: TracerouteResult
    callback: Optional[Callable[[TracerouteResult], None]]
    max_ttl: int
    done: bool = False
