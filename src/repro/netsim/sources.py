"""Packet-level traffic sources and meters.

The fluid model covers bulk throughput experiments; these helpers drive
the *per-packet* face of the system — the paper's bmv2-style validation
path — with hosts emitting real :class:`~repro.netsim.packet.Packet`
streams through the switch pipelines, and meters measuring what arrives.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

from .engine import PeriodicProcess, Simulator
from .node import Host
from .packet import Packet, PacketKind, Protocol, TcpFlags
from .topology import Topology


class PacketSource:
    """A host emitting a steady packet stream to one destination."""

    def __init__(self, topo: Topology, src: str, dst: str,
                 rate_pps: float, size_bytes: int = 1000,
                 proto: Protocol = Protocol.UDP,
                 sport: int = 0, dport: int = 80,
                 tcp_flags: TcpFlags = TcpFlags.NONE,
                 headers: Optional[Dict] = None):
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        self.topo = topo
        self.sim: Simulator = topo.sim
        self.host: Host = topo.host(src)
        self.dst = dst
        self.rate_pps = rate_pps
        self.size_bytes = size_bytes
        self.proto = proto
        self.sport = sport
        self.dport = dport
        self.tcp_flags = tcp_flags
        self.headers = dict(headers or {})
        self.packets_sent = 0
        self._process: Optional[PeriodicProcess] = None

    def start(self, delay_s: float = 0.0) -> "PacketSource":
        self._process = self.sim.every(1.0 / self.rate_pps, self._emit,
                                       start=delay_s)
        return self

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    def _emit(self) -> None:
        packet = Packet(
            src=self.host.name, dst=self.dst, size_bytes=self.size_bytes,
            proto=self.proto, sport=self.sport, dport=self.dport,
            tcp_flags=self.tcp_flags, headers=dict(self.headers))
        self.host.originate(packet)
        self.packets_sent += 1


class BatchPacketSource:
    """A host emitting one coalesced packet batch per window.

    The batch-path counterpart of :class:`PacketSource`: instead of one
    simulator event per packet, it fires every ``window_s`` and emits
    that window's worth of packets as a single batch —
    ``Host.originate_batch`` → ``Link.send_batch`` →
    ``ProgrammableSwitch.receive_batch``.  Fractional packets per window
    accumulate as credit, so the long-run rate matches ``rate_pps``
    exactly even when ``rate_pps * window_s`` is not an integer.
    """

    def __init__(self, topo: Topology, src: str, dst: str,
                 rate_pps: float, window_s: float = 0.01,
                 size_bytes: int = 1000,
                 proto: Protocol = Protocol.UDP,
                 sport: int = 0, dport: int = 80,
                 tcp_flags: TcpFlags = TcpFlags.NONE,
                 headers: Optional[Dict] = None):
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.topo = topo
        self.sim: Simulator = topo.sim
        self.host: Host = topo.host(src)
        self.dst = dst
        self.rate_pps = rate_pps
        self.window_s = window_s
        self.size_bytes = size_bytes
        self.proto = proto
        self.sport = sport
        self.dport = dport
        self.tcp_flags = tcp_flags
        self.headers = dict(headers or {})
        self.packets_sent = 0
        self.batches_sent = 0
        self._credit = 0.0
        self._process: Optional[PeriodicProcess] = None

    def start(self, delay_s: float = 0.0) -> "BatchPacketSource":
        self._process = self.sim.every(self.window_s, self._emit_window,
                                       start=delay_s)
        return self

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    def _emit_window(self) -> None:
        self._credit += self.rate_pps * self.window_s
        count = int(self._credit)
        if count <= 0:
            return
        self._credit -= count
        packets = [
            Packet(src=self.host.name, dst=self.dst,
                   size_bytes=self.size_bytes, proto=self.proto,
                   sport=self.sport, dport=self.dport,
                   tcp_flags=self.tcp_flags, headers=dict(self.headers))
            for _ in range(count)
        ]
        self.host.originate_batch(packets)
        self.packets_sent += count
        self.batches_sent += 1


@dataclass
class MeterWindow:
    """One sampling window's delivery stats for a (src -> dst) pair."""

    start: float
    end: float
    packets: int
    bytes: int

    @property
    def rate_bps(self) -> float:
        span = self.end - self.start
        return self.bytes * 8 / span if span > 0 else 0.0


class ThroughputMeter:
    """Measures per-source delivery at a destination host."""

    def __init__(self, topo: Topology, dst: str,
                 window_s: float = 1.0):
        if window_s <= 0:
            raise ValueError("window must be positive")
        self.sim = topo.sim
        self.dst = dst
        self.window_s = window_s
        self.total_packets: Dict[str, int] = defaultdict(int)
        self.total_bytes: Dict[str, int] = defaultdict(int)
        self.windows: Dict[str, List[MeterWindow]] = defaultdict(list)
        self._window_packets: Dict[str, int] = defaultdict(int)
        self._window_bytes: Dict[str, int] = defaultdict(int)
        self._window_start = 0.0
        topo.host(dst).on_packet(self._on_packet)
        self._process = self.sim.every(window_s, self._roll_window,
                                       start=window_s)

    def _on_packet(self, packet: Packet) -> None:
        if packet.kind != PacketKind.DATA:
            return
        self.total_packets[packet.src] += 1
        self.total_bytes[packet.src] += packet.size_bytes
        self._window_packets[packet.src] += 1
        self._window_bytes[packet.src] += packet.size_bytes

    def _roll_window(self) -> None:
        now = self.sim.now
        # Sorted so self.windows' key insertion order (and anything
        # downstream that walks it) is independent of string hashing.
        for src in sorted(set(self._window_packets) | set(self.windows)):
            self.windows[src].append(MeterWindow(
                start=self._window_start, end=now,
                packets=self._window_packets.get(src, 0),
                bytes=self._window_bytes.get(src, 0)))
        self._window_packets.clear()
        self._window_bytes.clear()
        self._window_start = now

    # ------------------------------------------------------------------
    def delivered(self, src: str) -> int:
        return self.total_packets.get(src, 0)

    def rate_bps(self, src: str, last_n_windows: int = 1) -> float:
        """Mean delivery rate of the most recent complete windows."""
        windows = self.windows.get(src, [])
        if not windows:
            return 0.0
        recent = windows[-last_n_windows:]
        span = sum(w.end - w.start for w in recent)
        total = sum(w.bytes for w in recent)
        return total * 8 / span if span > 0 else 0.0

    def stop(self) -> None:
        self._process.stop()
