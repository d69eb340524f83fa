"""Links: capacity, propagation delay, queues, and utilization accounting.

Links are *directed*; :class:`repro.netsim.topology.Topology` installs one
link object per direction.  A link serves two roles:

* **Packet level** — control traffic (probes, mode changes, traceroutes,
  state transfer) is simulated packet by packet with serialization delay,
  a bounded FIFO queue, and tail drops.
* **Fluid level** — bulk data traffic is represented as flow rates assigned
  by :mod:`repro.netsim.fluid`.  The allocator writes ``fluid_load_bps``
  each update; the link exposes a combined utilization and a loss
  probability that packet-level traffic sharing the link experiences.

This split is the substitution for the paper's ns3+bmv2 testbed (see
DESIGN.md): it preserves the *timescales* — probes cross a link in roughly
``delay + size/capacity`` seconds, congestion raises loss for
state-carrying packets — without simulating every data packet of a 120 s
experiment in pure Python.

A link's capacity and delay are fixed when the topology builds it.  The
only runtime state change is :meth:`Link.set_down` / :meth:`Link.set_up`,
the fault injector the probe-repair and fast-reroute tests use; a down
link drops what is sent over it and what arrives on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
import math
from typing import TYPE_CHECKING, Deque

from ..telemetry import metrics
from .engine import Simulator
from .packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

# Mode probes share links with attack traffic, so the link layer is the
# one place their loss is observable — the protocol layer only counts
# sends and receives (see core/mode_protocol.py).
_C_PACKETS_DROPPED = metrics().counter(
    "link_packets_dropped_total", "packet-level drops across all links",
    labelnames=("reason",))
_C_MODE_PROBES_LOST = metrics().counter(
    "mode_probes_lost_total",
    "MODE_CHANGE probes dropped in flight (queue/congestion/down)")


def _count_drop(packet: Packet, reason: str) -> None:
    _C_PACKETS_DROPPED.labels(reason).inc()
    if packet.kind == PacketKind.MODE_CHANGE:
        _C_MODE_PROBES_LOST.inc()


@dataclass
class LinkStats:
    """Counters a link maintains for monitoring and tests."""

    packets_sent: int = 0
    packets_dropped_queue: int = 0
    packets_dropped_congestion: int = 0
    packets_dropped_down: int = 0
    bytes_sent: int = 0

    @property
    def packets_dropped(self) -> int:
        return (self.packets_dropped_queue + self.packets_dropped_congestion
                + self.packets_dropped_down)


class Link:
    """A directed link between two nodes.

    Parameters
    ----------
    capacity_bps:
        Line rate in bits per second.
    delay_s:
        Propagation delay in seconds.
    queue_bytes:
        FIFO queue capacity for packet-level traffic.
    """

    def __init__(self, sim: Simulator, src: "Node", dst: "Node",
                 capacity_bps: float, delay_s: float,
                 queue_bytes: int = 512 * 1500):
        if not 0.0 < capacity_bps < math.inf:
            raise ValueError(f"link capacity must be finite and positive, "
                             f"got {capacity_bps}")
        if delay_s < 0:
            raise ValueError(f"link delay must be non-negative, got {delay_s}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.capacity_bps = capacity_bps
        self.delay_s = delay_s
        self.queue_bytes = queue_bytes
        self.stats = LinkStats()
        self.up = True
        #: Aggregate fluid-model data rate currently routed over this link,
        #: written by the fluid allocator on every update.
        self.fluid_load_bps = 0.0
        self._queue: Deque[Packet] = deque()
        self._queued_bytes = 0
        self._busy = False
        #: Optional per-packet observers (monitors, tests).
        self.on_transmit: list = []

    # ------------------------------------------------------------------
    # Identification
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"{self.src.name}->{self.dst.name}"

    def __repr__(self) -> str:
        return (f"Link({self.name}, {self.capacity_bps / 1e9:.2f}Gbps, "
                f"{self.delay_s * 1e3:.2f}ms, load={self.utilization:.2f})")

    # ------------------------------------------------------------------
    # Utilization / loss, combining fluid and packet traffic
    # ------------------------------------------------------------------
    @property
    def utilization(self) -> float:
        """Fraction of capacity consumed by fluid-model traffic (may be >1
        when the offered load exceeds capacity, i.e. the link is flooded)."""
        return self.fluid_load_bps / self.capacity_bps

    @property
    def congestion_loss_rate(self) -> float:
        """Probability a packet-level packet is lost to congestion.

        When the fluid offered load exceeds capacity, the excess fraction is
        dropped; packet-level traffic sharing the link sees the same loss
        rate.  This is what makes state-transfer packets unreliable on
        flooded links and motivates the FEC mechanism of Section 3.4.
        """
        if self.fluid_load_bps <= self.capacity_bps:
            return 0.0
        return 1.0 - self.capacity_bps / self.fluid_load_bps

    @property
    def queuing_delay_estimate(self) -> float:
        """Congestion-dependent queueing delay seen by packet-level traffic.

        Modeled as the time to drain a queue whose occupancy grows with
        utilization; capped at the time to drain a full queue.  Smoothly
        zero when idle, and equal to the full-queue drain time when the
        link is saturated.
        """
        rho = min(self.utilization, 1.0)
        full_drain = self.queue_bytes * 8 / self.capacity_bps
        return full_drain * rho ** 3

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def set_down(self) -> None:
        self.up = False

    def set_up(self) -> None:
        self.up = True

    # ------------------------------------------------------------------
    # Packet-level transmission
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Enqueue a packet for transmission.  Returns False on drop."""
        if not self.up:
            packet.mark_dropped("link_down")
            self.stats.packets_dropped_down += 1
            _count_drop(packet, "link_down")
            return False
        loss = self.congestion_loss_rate
        if loss > 0 and self.sim.rng.random() < loss:
            packet.mark_dropped("congestion")
            self.stats.packets_dropped_congestion += 1
            _count_drop(packet, "congestion")
            return False
        if self._queued_bytes + packet.size_bytes > self.queue_bytes:
            packet.mark_dropped("queue_overflow")
            self.stats.packets_dropped_queue += 1
            _count_drop(packet, "queue_overflow")
            return False
        self._queue.append(packet)
        self._queued_bytes += packet.size_bytes
        if not self._busy:
            self._transmit_next()
        return True

    def _transmit_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        packet = self._queue.popleft()
        self._queued_bytes -= packet.size_bytes
        serialization = packet.size_bits / self.capacity_bps
        arrival_delay = serialization + self.delay_s + self.queuing_delay_estimate
        self.stats.packets_sent += 1
        self.stats.bytes_sent += packet.size_bytes
        for observer in self.on_transmit:
            observer(self, packet)
        self.sim.schedule(arrival_delay, self._deliver, packet)
        self.sim.schedule(serialization, self._transmit_next)

    def _deliver(self, packet: Packet) -> None:
        if not self.up:
            packet.mark_dropped("link_down")
            self.stats.packets_dropped_down += 1
            _count_drop(packet, "link_down")
            return
        self.dst.receive(packet, from_link=self)

    # ------------------------------------------------------------------
    # Batch transmission (see DESIGN.md "Batch data plane")
    # ------------------------------------------------------------------
    def send_batch(self, packets: list, sizes=None) -> int:
        """Enqueue one coalesced window of packets; returns how many were
        accepted.

        Admission control is per packet and in order — the same
        congestion-loss RNG draws and the same cumulative queue check as
        ``len(packets)`` sequential :meth:`send` calls, so drop decisions
        are identical.  The accepted packets then cross the link as ONE
        scheduled event: they serialize back-to-back and arrive together
        after the aggregate serialization time plus propagation — the
        window-coalescing model that removes the per-packet event cost.
        When the serializer is already busy, the window falls back into
        the regular FIFO and drains per packet.

        ``sizes``, when given, must be the parallel ``size_bytes``
        column for ``packets``; it only short-cuts the byte summation.
        """
        if not self.up:
            for packet in packets:
                packet.mark_dropped("link_down")
                _count_drop(packet, "link_down")
            self.stats.packets_dropped_down += len(packets)
            return 0
        loss = self.congestion_loss_rate
        accepted = None
        total = -1
        if loss == 0:
            window_bytes = (sum(sizes) if sizes is not None
                            else sum(p.size_bytes for p in packets))
            if self._queued_bytes + window_bytes <= self.queue_bytes:
                # No loss process and the whole window fits: every
                # in-order per-packet admission check would pass (sizes
                # are non-negative, so every prefix fits too), so the
                # scan is skipped wholesale.
                accepted = list(packets)
                self._queued_bytes += window_bytes
                total = window_bytes
        if accepted is None:
            rng = self.sim.rng.random
            accepted = []
            for packet in packets:
                if loss > 0 and rng() < loss:
                    packet.mark_dropped("congestion")
                    self.stats.packets_dropped_congestion += 1
                    _count_drop(packet, "congestion")
                    continue
                if self._queued_bytes + packet.size_bytes > self.queue_bytes:
                    packet.mark_dropped("queue_overflow")
                    self.stats.packets_dropped_queue += 1
                    _count_drop(packet, "queue_overflow")
                    continue
                self._queued_bytes += packet.size_bytes
                accepted.append(packet)
        if not accepted:
            return 0
        if self._busy:
            # Serializer busy mid-window: drain through the normal FIFO
            # (bytes already reserved above).
            self._queue.extend(accepted)
            return len(accepted)
        self._busy = True
        if total >= 0:
            total_bytes = total
        else:
            total_bytes = 0
            for packet in accepted:
                total_bytes += packet.size_bytes
        self._queued_bytes -= total_bytes
        serialization = total_bytes * 8 / self.capacity_bps
        arrival_delay = serialization + self.delay_s + self.queuing_delay_estimate
        self.stats.packets_sent += len(accepted)
        self.stats.bytes_sent += total_bytes
        if self.on_transmit:
            for packet in accepted:
                for observer in self.on_transmit:
                    observer(self, packet)
        self.sim.schedule(arrival_delay, self._deliver_batch, accepted)
        self.sim.schedule(serialization, self._transmit_next)
        return len(accepted)

    def _deliver_batch(self, packets: list) -> None:
        if not self.up:
            for packet in packets:
                packet.mark_dropped("link_down")
                _count_drop(packet, "link_down")
            self.stats.packets_dropped_down += len(packets)
            return
        self.dst.receive_batch(packets, from_link=self)
