"""Packets and header machinery.

Packets in this simulator carry a small fixed set of IP-like fields plus an
extensible *custom header* mapping.  The custom header models what a P4
program would express as user-defined headers: FastFlex mode-change probes,
Hula-style utilization probes, piggybacked state-transfer values, and
detector synchronization digests all ride in it.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: Conventional TTL for freshly minted packets.
DEFAULT_TTL = 64

_packet_ids = itertools.count(1)


class PacketKind(enum.Enum):
    """Traffic classes the data plane distinguishes by parsing."""

    DATA = "data"
    PROBE = "probe"                  # Hula-style path-utilization probe
    MODE_CHANGE = "mode_change"      # FastFlex distributed mode-change probe
    TRACEROUTE = "traceroute"        # TTL-limited probe from a host
    ICMP_TTL_EXCEEDED = "icmp_ttl_exceeded"
    STATE_TRANSFER = "state_transfer"  # piggybacked register state
    SYNC = "sync"                    # detector view synchronization digest
    RECONFIG_NOTICE = "reconfig_notice"  # switch-about-to-repurpose notice

    # Enum.__hash__ is a Python-level call; kinds are hashed per packet
    # by the batch kernels (kind-count Counters, flow-tuple dedupe).
    # Members are singletons with identity equality, so the C identity
    # hash is a coherent drop-in — nothing persists hash() values.
    __hash__ = object.__hash__


class Protocol(enum.Enum):
    """Transport protocols the flow table keys on."""

    TCP = 6
    UDP = 17
    ICMP = 1

    __hash__ = object.__hash__  # see PacketKind.__hash__


@dataclass(frozen=True)
class FlowKey:
    """Canonical 5-tuple identifying a flow."""

    src: str
    dst: str
    proto: Protocol = Protocol.TCP
    sport: int = 0
    dport: int = 0

    def __hash__(self) -> int:
        # Same value the dataclass-generated hash would produce, but
        # computed once per object: flow keys are hashed repeatedly by
        # the batch kernels (dedup, totals, LRU reorder), and the tuple
        # hash recomputes the Python-level Protocol.__hash__ every time.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash((self.src, self.dst, self.proto,
                          self.sport, self.dport))
            object.__setattr__(self, "_hash", value)
            return value

    def reversed(self) -> "FlowKey":
        """The key of the reverse direction (for TCP state tracking)."""
        return FlowKey(self.dst, self.src, self.proto, self.dport, self.sport)

    def as_tuple(self) -> Tuple[str, str, int, int, int]:
        return (self.src, self.dst, self.proto.value, self.sport, self.dport)

    def __str__(self) -> str:
        return (f"{self.src}:{self.sport}->{self.dst}:{self.dport}"
                f"/{self.proto.name.lower()}")


class TcpFlags(enum.IntFlag):
    """TCP flag bits used by the per-flow state machine boosters."""

    NONE = 0
    SYN = 0x02
    ACK = 0x10
    FIN = 0x01
    RST = 0x04
    PSH = 0x08


@dataclass
class Packet:
    """A simulated packet.

    Attributes
    ----------
    src, dst:
        Host names (the simulator uses symbolic addresses).
    size_bytes:
        Wire size used for serialization-delay and queue accounting.
    kind:
        The :class:`PacketKind` the parser would classify this packet as.
    headers:
        Custom P4-style headers, keyed by field name.  Mutated in place by
        packet-processing modules (e.g. a probe accumulates the max link
        utilization it has seen).
    """

    src: str
    dst: str
    size_bytes: int = 1500
    kind: PacketKind = PacketKind.DATA
    proto: Protocol = Protocol.TCP
    sport: int = 0
    dport: int = 0
    ttl: int = DEFAULT_TTL
    tcp_flags: TcpFlags = TcpFlags.NONE
    headers: Dict[str, Any] = field(default_factory=dict)
    pkt_id: int = field(default_factory=lambda: next(_packet_ids))
    created_at: float = 0.0
    #: Filled in by switches as the packet travels; used by traceroute and
    #: by tests asserting on actual forwarding behaviour.
    path_taken: list = field(default_factory=list)
    #: Set by a drop decision; carries the reason for observability.
    dropped: Optional[str] = None

    @property
    def flow_key(self) -> FlowKey:
        return FlowKey(self.src, self.dst, self.proto, self.sport, self.dport)

    @property
    def size_bits(self) -> int:
        return self.size_bytes * 8

    def mark_dropped(self, reason: str) -> None:
        """Record a drop decision; the first reason wins."""
        if self.dropped is None:
            self.dropped = reason

    def copy_for_duplicate(self) -> "Packet":
        """A shallow clone with a fresh packet id (for replication/FEC)."""
        clone = Packet(
            src=self.src, dst=self.dst, size_bytes=self.size_bytes,
            kind=self.kind, proto=self.proto, sport=self.sport,
            dport=self.dport, ttl=self.ttl, tcp_flags=self.tcp_flags,
            headers=dict(self.headers), created_at=self.created_at,
        )
        return clone

    def __repr__(self) -> str:
        return (f"Packet(#{self.pkt_id} {self.kind.value} "
                f"{self.flow_key} ttl={self.ttl} size={self.size_bytes}B)")
