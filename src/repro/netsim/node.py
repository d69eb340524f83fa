"""Nodes: the common base class and end hosts.

Switches live in :mod:`repro.netsim.switch`; this module provides the
plumbing both share (link attachment, neighbor lookup) and the
:class:`Host` endpoint that sources and sinks traffic, runs traceroutes,
and hands received packets to application callbacks.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from operator import attrgetter
from typing import Callable, Dict, List, Optional

from .engine import Simulator
from .links import Link
from .packet import Packet, PacketKind

_GET_KIND = attrgetter("kind")


class Node:
    """A network element with named links to neighbors."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        #: Outgoing links keyed by neighbor node name.
        self.links: Dict[str, Link] = {}

    # ------------------------------------------------------------------
    def attach_link(self, link: Link) -> None:
        if link.src is not self:
            raise ValueError(
                f"link {link.name} does not originate at {self.name}")
        self.links[link.dst.name] = link

    @property
    def neighbors(self) -> List[str]:
        return list(self.links)

    def link_to(self, neighbor: str) -> Link:
        try:
            return self.links[neighbor]
        except KeyError:
            raise KeyError(
                f"{self.name} has no link to {neighbor}; "
                f"neighbors are {sorted(self.links)}") from None

    def send_via(self, neighbor: str, packet: Packet) -> bool:
        """Transmit a packet over the link to ``neighbor``."""
        return self.link_to(neighbor).send(packet)

    def receive(self, packet: Packet, from_link: Optional[Link] = None) -> None:
        raise NotImplementedError

    def receive_batch(self, packets: List[Packet],
                      from_link: Optional[Link] = None) -> None:
        """Deliver a coalesced window of packets.

        The default unrolls to per-packet :meth:`receive`;
        :class:`~repro.netsim.switch.ProgrammableSwitch` overrides it
        with the vectorized pipeline.
        """
        for packet in packets:
            self.receive(packet, from_link=from_link)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class Host(Node):
    """An end host: traffic endpoint and traceroute client.

    Hosts do not forward transit traffic; everything they originate goes to
    their default gateway switch.  Received packets are counted per kind
    and dispatched to registered callbacks (the traceroute client in
    :mod:`repro.netsim.traceroute` registers one for ICMP).
    """

    def __init__(self, sim: Simulator, name: str,
                 gateway: Optional[str] = None):
        super().__init__(sim, name)
        self.gateway = gateway
        self.received_by_kind: Dict[PacketKind, int] = defaultdict(int)
        self.received_packets: List[Packet] = []
        #: Cap on retained packets so long runs do not grow unboundedly;
        #: counters keep counting past the cap.
        self.retain_limit = 10_000
        self._callbacks: List[Callable[[Packet], None]] = []

    # ------------------------------------------------------------------
    def on_packet(self, callback: Callable[[Packet], None]) -> None:
        """Register a callback invoked for every packet addressed to us."""
        self._callbacks.append(callback)

    def originate(self, packet: Packet) -> bool:
        """Send a locally generated packet toward its destination."""
        packet.created_at = self.sim.now
        packet.path_taken.append(self.name)
        if packet.dst == self.name:
            self.receive(packet)
            return True
        if self.gateway is None:
            raise RuntimeError(f"host {self.name} has no gateway configured")
        return self.send_via(self.gateway, packet)

    def originate_batch(self, packets: List[Packet]) -> int:
        """Send one window of locally generated packets as a single batch
        event toward the gateway; returns how many were accepted (packets
        addressed to this host short-circuit to :meth:`receive` and always
        count as accepted)."""
        now = self.sim.now
        name = self.name
        transit: List[Packet] = []
        local = 0
        for packet in packets:
            packet.created_at = now
            packet.path_taken.append(name)
            if packet.dst == name:
                self.receive(packet)
                local += 1
            else:
                transit.append(packet)
        if not transit:
            return local
        if self.gateway is None:
            raise RuntimeError(f"host {self.name} has no gateway configured")
        return local + self.link_to(self.gateway).send_batch(transit)

    def receive(self, packet: Packet, from_link: Optional[Link] = None) -> None:
        if packet.dst != self.name:
            # Hosts are not routers; transit traffic is silently dropped.
            packet.mark_dropped("host_not_destination")
            return
        packet.path_taken.append(self.name)
        self.received_by_kind[packet.kind] += 1
        if len(self.received_packets) < self.retain_limit:
            self.received_packets.append(packet)
        if packet.kind == PacketKind.TRACEROUTE:
            self._reply_traceroute(packet)
        for callback in self._callbacks:
            callback(packet)

    def receive_batch(self, packets: List[Packet],
                      from_link: Optional[Link] = None) -> None:
        """Vectorized sink: same observable effects as per-packet
        :meth:`receive`, with the counting and retention done in bulk.
        Falls back to per-packet order for traceroute replies and
        callbacks, which may observe interleaved state."""
        name = self.name
        if {p.dst for p in packets} == {name}:
            # Whole window addressed to us (the common sink case): skip
            # the per-packet destination branch.
            for packet in packets:
                packet.path_taken.append(name)
            mine: List[Packet] = (packets if isinstance(packets, list)
                                  else list(packets))
        else:
            mine = []
            append = mine.append
            for packet in packets:
                if packet.dst != name:
                    packet.mark_dropped("host_not_destination")
                else:
                    packet.path_taken.append(name)
                    append(packet)
        if not mine:
            return
        kind_counts = Counter(map(_GET_KIND, mine))
        received = self.received_by_kind
        for kind, count in kind_counts.items():
            received[kind] += count
        room = self.retain_limit - len(self.received_packets)
        if room > 0:
            self.received_packets.extend(mine[:room])
        if self._callbacks or PacketKind.TRACEROUTE in kind_counts:
            for packet in mine:
                if packet.kind == PacketKind.TRACEROUTE:
                    self._reply_traceroute(packet)
                for callback in self._callbacks:
                    callback(packet)

    def _reply_traceroute(self, probe: Packet) -> None:
        """Answer a traceroute probe that reached us (like a real server's
        ICMP port-unreachable): tells the tracer the destination was hit."""
        reply = Packet(
            src=self.name, dst=probe.src, size_bytes=64,
            kind=PacketKind.ICMP_TTL_EXCEEDED,
            headers={
                "reporter": self.name,
                "destination_reached": True,
                "probe_id": probe.headers.get("probe_id"),
                "probe_ttl": probe.headers.get("probe_ttl"),
            },
        )
        self.originate(reply)

    def received_count(self, kind: PacketKind = PacketKind.DATA) -> int:
        return self.received_by_kind.get(kind, 0)
