"""The programmable switch: pipeline execution, forwarding, repurposing.

A :class:`ProgrammableSwitch` executes an ordered list of installed
*switch programs* on every packet (the runtime face of the paper's packet
processing modules), then forwards per its routing table.  It also models
the operational machinery of Section 3.4: resource accounting via a
:class:`~repro.dataplane.resources.ResourceLedger`, reconfiguration
downtime with neighbor notification, and fast reroute around neighbors
that are down or reconfiguring.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..dataplane.batch import PacketBatch
from ..dataplane.resources import ResourceLedger, ResourceVector, TOFINO_LIKE
from ..telemetry import metrics
from .engine import Simulator
from .links import Link
from .node import Node
from .packet import Packet, PacketKind, Protocol

# Batch data-plane telemetry (see DESIGN.md "Batch data plane").  Cached
# at module level: receive_batch is the hot path.
_MET = metrics()
_C_BATCH_EVENTS = _MET.counter(
    "dataplane_batch_events_total",
    "coalesced packet batches processed by switch pipelines")
_C_BATCH_PACKETS = _MET.counter(
    "dataplane_batch_packets_total",
    "packets that arrived at switches inside a coalesced batch")
_C_BATCH_FALLBACK = _MET.counter(
    "dataplane_batch_fallback_packets_total",
    "per-packet program invocations on the batch path (programs "
    "without a vectorized kernel)")


class Decision(enum.Enum):
    """Terminal decisions a switch program can make about a packet."""

    CONTINUE = "continue"


@dataclass
class Drop:
    """Drop the packet, recording why."""

    reason: str


@dataclass
class Consume:
    """Absorb the packet (e.g. a probe that terminates here)."""


@dataclass
class Forward:
    """Override normal routing: send out of the link to ``neighbor``."""

    neighbor: str


#: What `SwitchProgram.process` may return: ``None``/``Decision.CONTINUE``
#: to keep going, or one of the dataclasses above.
ProgramResult = Optional[object]


class LegacySwitchError(RuntimeError):
    """Raised when installing a program on a fixed-function switch."""


class SwitchProgram:
    """Base class for the runtime behaviour installed on a switch.

    Subclasses override :meth:`process`.  ``name`` must be unique per
    switch (the resource ledger keys on it); ``requirement`` is the
    program's resource vector.

    Programs with a vectorized kernel set :attr:`supports_batch` and
    implement :meth:`process_batch`; everything else transparently falls
    back to per-packet :meth:`process` when the switch receives a
    coalesced batch (counted by ``dataplane_batch_fallback_packets_total``).
    """

    #: True when :meth:`process_batch` is implemented; the batch path
    #: falls back to per-packet :meth:`process` otherwise.
    supports_batch = False

    def __init__(self, name: str,
                 requirement: ResourceVector = ResourceVector.zero()):
        self.name = name
        self.requirement = requirement
        self.switch: Optional["ProgrammableSwitch"] = None

    def on_install(self, switch: "ProgrammableSwitch") -> None:
        """Hook called when the program is installed."""
        self.switch = switch

    def on_remove(self, switch: "ProgrammableSwitch") -> None:
        """Hook called when the program is removed."""
        self.switch = None

    def process(self, switch: "ProgrammableSwitch",
                packet: Packet) -> ProgramResult:
        raise NotImplementedError

    def process_batch(self, switch: "ProgrammableSwitch",
                      batch: PacketBatch) -> None:
        """Vectorized handler, called only when :attr:`supports_batch`.

        Instead of returning a :class:`ProgramResult`, the program records
        per-packet decisions on the batch: ``batch.drop(i, reason)``,
        ``batch.consume(i)``, or ``batch.overrides[i] = neighbor``
        (Forward).  Only still-alive packets may be touched — earlier
        programs' drops must stay hidden, mirroring the sequential pipeline.
        """
        raise NotImplementedError

    def export_state(self) -> Dict[str, Any]:
        """Serializable register state, for state transfer (Section 3.4)."""
        return {}

    def import_state(self, state: Dict[str, Any]) -> None:
        """Restore register state produced by :meth:`export_state`."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


@dataclass
class SwitchStats:
    """Forwarding-plane counters."""

    packets_forwarded: int = 0
    packets_dropped_no_route: int = 0
    packets_dropped_by_program: int = 0
    packets_dropped_reconfig: int = 0
    packets_consumed: int = 0
    ttl_expired: int = 0
    fast_reroutes: int = 0


class ProgrammableSwitch(Node):
    """A P4-style switch with a multiplexed, reconfigurable pipeline.

    With ``programmable=False`` the switch models a *legacy* fixed-
    function device (§2: "legacy elements can still be part of the
    default mode"): it forwards exactly like any other switch but
    refuses program installation — FastFlex machinery must route
    through it, not run on it.
    """

    def __init__(self, sim: Simulator, name: str,
                 resources: ResourceVector = TOFINO_LIKE,
                 programmable: bool = True):
        super().__init__(sim, name)
        self.programmable = programmable
        if not programmable:
            resources = ResourceVector.zero()
        self.ledger = ResourceLedger(resources)
        self.stats = SwitchStats()
        #: Ordered installed programs, executed per packet.
        self.programs: List[SwitchProgram] = []
        self._programs_by_name: Dict[str, SwitchProgram] = {}
        #: ECMP routing table: destination host -> candidate next hops.
        self.routes: Dict[str, List[str]] = {}
        #: Per-(src, dst) pinned next hops — installed by TE deployments
        #: and by rerouting defenses; consulted before ``routes`` so
        #: packet-level traffic follows the same paths the fluid model
        #: charges for those pairs.
        self.flow_routes: Dict[tuple, str] = {}
        #: Fast-reroute alternates: unusable next hop -> fallback next hop
        #: (coarse, destination-agnostic; used when no per-destination
        #: alternate is installed).
        self.frr: Dict[str, str] = {}
        #: Loop-free alternates per (unusable next hop, destination),
        #: installed by
        #: :func:`repro.netsim.routing.install_fast_reroute_alternates`.
        self.frr_dst: Dict[tuple, str] = {}
        #: Neighbors currently reconfiguring (avoided by forwarding).
        self.avoid_neighbors: set = set()
        #: True while this switch itself is being repurposed (Tofino-style
        #: downtime); all transit packets are dropped meanwhile.
        self.reconfiguring = False
        #: Free-form per-switch state used by mode machinery and boosters.
        self.scratch: Dict[str, Any] = {}
        #: Observers called on every received packet (monitors, tests).
        self.taps: List[Callable[["ProgrammableSwitch", Packet], None]] = []

    # ------------------------------------------------------------------
    # Program management (resource-checked)
    # ------------------------------------------------------------------
    def install_program(self, program: SwitchProgram,
                        position: Optional[int] = None) -> None:
        """Install a program, reserving its resources; raises if it
        does not fit (the Section 3.1 feasibility constraint)."""
        if not self.programmable:
            raise LegacySwitchError(
                f"{self.name} is a legacy fixed-function switch; "
                f"programs cannot be installed on it")
        if program.name in self._programs_by_name:
            raise ValueError(
                f"{self.name}: program {program.name!r} already installed")
        self.ledger.allocate(program.name, program.requirement)
        if position is None:
            self.programs.append(program)
        else:
            self.programs.insert(position, program)
        self._programs_by_name[program.name] = program
        program.on_install(self)

    def remove_program(self, name: str) -> SwitchProgram:
        program = self._programs_by_name.pop(name, None)
        if program is None:
            raise KeyError(f"{self.name}: no program named {name!r}")
        self.programs.remove(program)
        self.ledger.release(name)
        program.on_remove(self)
        return program

    def get_program(self, name: str) -> SwitchProgram:
        try:
            return self._programs_by_name[name]
        except KeyError:
            raise KeyError(
                f"{self.name}: no program named {name!r}; installed: "
                f"{sorted(self._programs_by_name)}") from None

    def has_program(self, name: str) -> bool:
        return name in self._programs_by_name

    # ------------------------------------------------------------------
    # Routing table management
    # ------------------------------------------------------------------
    def set_route(self, dst: str, next_hops: Sequence[str]) -> None:
        hops = list(next_hops)
        for hop in hops:
            if hop not in self.links:
                raise ValueError(
                    f"{self.name}: next hop {hop} is not a neighbor")
        self.routes[dst] = hops

    def _ecmp_pick(self, packet: Packet, candidates: List[str]) -> str:
        return self._ecmp_pick_pair(packet.src, packet.dst, candidates)

    def _ecmp_pick_pair(self, src: str, dst: str,
                        candidates: List[str]) -> str:
        """Deterministic hash-based ECMP selection.

        Hashes only (src, dst) — per-pair rather than per-5-tuple — so a
        host's traceroute probes follow the same path as its flows
        (Paris-traceroute-style stability, and it keeps the fluid model's
        per-pair paths consistent with packet-level forwarding).
        """
        if len(candidates) == 1:
            return candidates[0]
        digest = zlib.crc32(f"{src}|{dst}".encode())
        return candidates[digest % len(candidates)]

    def _usable(self, neighbor: str) -> bool:
        """Is the neighbor a valid forwarding target *as far as this
        switch knows*?  A silently reconfiguring neighbor still looks
        usable — that is precisely why §3.4 requires the notification
        protocol: only an explicit notice (``avoid_neighbors``) or a
        dead link diverts traffic before it blackholes."""
        link = self.links.get(neighbor)
        if link is None or not link.up:
            return False
        return neighbor not in self.avoid_neighbors

    def _resolve_next_hop(self, packet: Packet,
                          override: Optional[str] = None) -> Optional[str]:
        return self._resolve_route(packet.src, packet.dst, override)

    def _resolve_route(self, src: str, dst: str,
                       override: Optional[str] = None) -> Optional[str]:
        """Pick a usable next hop, applying fast reroute when the primary
        choice is down or reconfiguring (Section 3.4).  Pure in
        (src, dst, override) for a fixed table/link state, apart from the
        ``fast_reroutes`` counter."""
        if override is not None:
            if self._usable(override):
                return override
            rerouted = self._frr_alternate(override, dst)
            if rerouted is not None:
                return rerouted
            return None
        pinned = self.flow_routes.get((src, dst))
        if pinned is not None:
            if self._usable(pinned):
                return pinned
            alternate = self._frr_alternate(pinned, dst)
            if alternate is not None:
                return alternate
            # Fall through to the destination-based tables.
        candidates = self.routes.get(dst, [])
        if not candidates:
            return None
        primary = self._ecmp_pick_pair(src, dst, candidates)
        if self._usable(primary):
            return primary
        # Fast reroute: explicit alternate first, then any usable ECMP peer.
        alternate = self._frr_alternate(primary, dst)
        if alternate is not None:
            return alternate
        for candidate in candidates:
            if candidate != primary and self._usable(candidate):
                self.stats.fast_reroutes += 1
                return candidate
        return None

    def _frr_alternate(self, failed: str, dst: str) -> Optional[str]:
        """A usable fast-reroute alternate for the failed next hop:
        the per-destination loop-free alternate if installed, else the
        coarse per-neighbor one."""
        for candidate in (self.frr_dst.get((failed, dst)),
                          self.frr.get(failed)):
            if candidate is not None and candidate != failed \
                    and self._usable(candidate):
                self.stats.fast_reroutes += 1
                return candidate
        return None

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, from_link: Optional[Link] = None) -> None:
        if self.reconfiguring:
            packet.mark_dropped("switch_reconfiguring")
            self.stats.packets_dropped_reconfig += 1
            return
        packet.path_taken.append(self.name)
        for tap in self.taps:
            tap(self, packet)

        local = packet.dst == self.name
        if not local:
            # TTL processing happens before the pipeline so traceroute
            # probes that expire here are visible to obfuscation programs
            # via the generated ICMP reply.
            packet.ttl -= 1
            if packet.ttl <= 0:
                self.stats.ttl_expired += 1
                self._reply_ttl_exceeded(packet)
                return

        override: Optional[str] = None
        for program in list(self.programs):
            result = program.process(self, packet)
            if result is None or result is Decision.CONTINUE:
                continue
            if isinstance(result, Drop):
                packet.mark_dropped(result.reason)
                self.stats.packets_dropped_by_program += 1
                return
            if isinstance(result, Consume):
                self.stats.packets_consumed += 1
                return
            if isinstance(result, Forward):
                override = result.neighbor
                continue
            raise TypeError(
                f"program {program.name!r} returned {result!r}")

        if local:
            # Control packets addressed to this switch terminate here;
            # built-in kinds get their handlers, the rest were the
            # pipeline's to consume.
            if packet.kind == PacketKind.RECONFIG_NOTICE:
                self.handle_reconfig_notice(packet)
            self.stats.packets_consumed += 1
            return

        next_hop = self._resolve_next_hop(packet, override)
        if next_hop is None:
            packet.mark_dropped("no_route")
            self.stats.packets_dropped_no_route += 1
            return
        self.stats.packets_forwarded += 1
        self.send_via(next_hop, packet)

    def receive_batch(self, packets: Sequence[Packet],
                      from_link: Optional[Link] = None) -> None:
        """Process a coalesced window of packets as one batch event.

        Semantically equivalent to calling :meth:`receive` per packet
        (same per-structure state, same drop decisions — the property
        tests in ``tests/netsim/test_batch_switch.py`` enforce it), but
        programs with vectorized kernels see the whole column at once:
        a pre-filter stage (flagged-source masks, bloom membership
        masks) runs over the batch and only the survivors fall through
        to per-packet logic.  Programs without a batch kernel run
        per-packet over the current survivors, so mixing vectorized and
        scalar programs in one pipeline is fine.
        """
        n = len(packets)
        if n == 0:
            return
        _C_BATCH_EVENTS.inc()
        _C_BATCH_PACKETS.inc(n)
        if self.reconfiguring:
            for packet in packets:
                packet.mark_dropped("switch_reconfiguring")
            self.stats.packets_dropped_reconfig += n
            return
        name = self.name
        taps = self.taps
        for packet in packets:
            packet.path_taken.append(name)
        if taps:
            for packet in packets:
                for tap in taps:
                    tap(self, packet)

        batch = PacketBatch(packets)
        # TTL stage: transit packets expire here exactly as on the
        # per-packet path; the ICMP reply machinery takes them over, so
        # they silently leave the batch (neither dropped nor consumed).
        for i in range(n):
            packet = packets[i]
            if packet.dst != name:
                ttl = packet.ttl - 1
                packet.ttl = ttl
                if ttl <= 0:
                    self.stats.ttl_expired += 1
                    batch.kill(i)
                    self._reply_ttl_exceeded(packet)

        for program in list(self.programs):
            if not batch.alive_count():
                break
            if program.supports_batch:
                program.process_batch(self, batch)
                continue
            # Fallback: the scalar program runs per surviving packet.
            survivors = list(batch.survivors())
            _C_BATCH_FALLBACK.inc(len(survivors))
            for i, packet in survivors:
                result = program.process(self, packet)
                if result is None or result is Decision.CONTINUE:
                    continue
                if isinstance(result, Drop):
                    batch.drop(i, result.reason)
                elif isinstance(result, Consume):
                    batch.consume(i)
                elif isinstance(result, Forward):
                    batch.overrides[i] = result.neighbor
                else:
                    raise TypeError(
                        f"program {program.name!r} returned {result!r}")
        stats = self.stats
        stats.packets_dropped_by_program += batch.dropped
        stats.packets_consumed += batch.consumed

        # Local consumption plus next-hop grouping.  Routing is pure in
        # (src, dst, override) for a fixed table state, so resolution is
        # memoized per key; the fast-reroute counter delta is replayed on
        # hits to keep stats identical to the per-packet path.
        overrides = batch.overrides
        alive = batch.alive
        if not overrides and name not in batch.dst:
            # Single-egress fast path: no per-packet overrides and
            # nothing addressed to this switch, so resolve each unique
            # (src, dst) pair once.  When every pair routes cleanly to
            # one usable hop with no fast-reroute counter side effects,
            # the whole window leaves on that link; anything else rolls
            # the counter back and falls through to the per-packet loop.
            frr_before = stats.fast_reroutes
            resolve = self._resolve_route
            hops = {resolve(src, dst)
                    for src, dst in dict.fromkeys(zip(batch.src, batch.dst))}
            if (len(hops) == 1 and None not in hops
                    and stats.fast_reroutes == frr_before):
                if batch.alive_count() == n:
                    group = list(packets)
                    sizes = batch.column("size_bytes")
                else:
                    group = list(compress(packets, alive))
                    sizes = compress(batch.column("size_bytes"), alive)
                stats.packets_forwarded += len(group)
                self.links[hops.pop()].send_batch(group, sizes=sizes)
                return
            # Roll back the probe resolutions' only side effect so
            # no-route drops and fast-reroute accounting land exactly as
            # on the sequential path.
            stats.fast_reroutes = frr_before
        override_get = overrides.get if overrides else None
        route_cache: Dict[tuple, tuple] = {}
        cache_get = route_cache.get
        groups: Dict[str, List[Packet]] = {}
        forwarded = 0
        for i in range(n):
            if not alive[i]:
                continue
            packet = packets[i]
            if packet.dst == name:
                if packet.kind == PacketKind.RECONFIG_NOTICE:
                    self.handle_reconfig_notice(packet)
                stats.packets_consumed += 1
                continue
            override = override_get(i) if override_get is not None else None
            cache_key = (packet.src, packet.dst, override)
            cached = cache_get(cache_key)
            if cached is None:
                before = stats.fast_reroutes
                hop = self._resolve_next_hop(packet, override)
                cached = (hop, stats.fast_reroutes - before)
                route_cache[cache_key] = cached
            else:
                stats.fast_reroutes += cached[1]
            next_hop = cached[0]
            if next_hop is None:
                packet.mark_dropped("no_route")
                stats.packets_dropped_no_route += 1
                continue
            forwarded += 1
            group = groups.get(next_hop)
            if group is None:
                groups[next_hop] = group = []
            group.append(packet)
        stats.packets_forwarded += forwarded
        for next_hop, group in groups.items():
            self.links[next_hop].send_batch(group)

    def _reply_ttl_exceeded(self, packet: Packet) -> None:
        """Generate the ICMP time-exceeded reply traceroute relies on.

        The ``reporter`` header is what an obfuscation program rewrites
        (NetHide-style) to hide the true topology; programs get a chance to
        do so through the ``mutate_icmp`` hook in scratch space.
        """
        reporter = self.name
        mutator = self.scratch.get("icmp_reporter_mutator")
        if mutator is not None:
            reporter = mutator(self, packet)
        reply = Packet(
            src=self.name, dst=packet.src, size_bytes=64,
            kind=PacketKind.ICMP_TTL_EXCEEDED, proto=Protocol.ICMP,
            headers={
                "reporter": reporter,
                "probe_id": packet.headers.get("probe_id"),
                "probe_ttl": packet.headers.get("probe_ttl"),
            },
        )
        reply.created_at = self.sim.now
        next_hop = self._resolve_next_hop(reply)
        if next_hop is not None:
            self.send_via(next_hop, reply)

    # ------------------------------------------------------------------
    # Repurposing (Section 3.4)
    # ------------------------------------------------------------------
    def notify_neighbors_of_reconfig(self, clearing: bool = False) -> None:
        """Tell neighbors to route around (or back through) this switch."""
        for neighbor, link in self.links.items():
            notice = Packet(
                src=self.name, dst=neighbor, size_bytes=64,
                kind=PacketKind.RECONFIG_NOTICE, proto=Protocol.UDP,
                headers={"switch": self.name, "clearing": clearing},
            )
            notice.created_at = self.sim.now
            link.send(notice)

    def begin_reconfiguration(self, duration_s: float,
                              hitless: bool = False,
                              on_complete: Optional[Callable[[], None]] = None
                              ) -> None:
        """Start a repurposing window.

        With ``hitless=False`` (Tofino-style, footnote 1 of the paper) the
        switch drops transit traffic for ``duration_s``; neighbors were
        told to fast-reroute via :meth:`notify_neighbors_of_reconfig`.
        With ``hitless=True`` (Trident-style) forwarding continues.
        """
        if duration_s < 0:
            raise ValueError("reconfiguration duration must be >= 0")
        if not hitless:
            self.reconfiguring = True
        self.sim.schedule(duration_s, self._end_reconfiguration, on_complete)

    def _end_reconfiguration(self,
                             on_complete: Optional[Callable[[], None]]
                             ) -> None:
        self.reconfiguring = False
        self.notify_neighbors_of_reconfig(clearing=True)
        if on_complete is not None:
            on_complete()

    def handle_reconfig_notice(self, packet: Packet) -> None:
        """Process a neighbor's reconfiguration notice."""
        switch = packet.headers["switch"]
        if packet.headers.get("clearing"):
            self.avoid_neighbors.discard(switch)
        else:
            self.avoid_neighbors.add(switch)
