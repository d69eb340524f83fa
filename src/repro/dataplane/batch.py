"""Structure-of-arrays packet batches: the vectorized data-plane substrate.

Real fast paths never touch packets one Python call at a time — the XDP
lesson is to run cheap discriminating checks over a whole *batch* at the
driver layer and only drop to per-packet logic for the survivors.  This
module provides the batch currency the rest of the repo speaks:

* :class:`PacketBatch` — a window of packets exposed as parallel columns
  (``src``, ``dst``, ``sport``, ``size_bytes``, ``ts``, ...).  Numeric
  columns are :mod:`array` arrays.  Columns are built lazily and
  cached, so a batch that only ever needs ``src`` never pays for the
  rest.
* an alive/drop mask so pipeline stages can pre-filter vectorized
  (flagged-source masks, bloom membership masks) before any per-packet
  program logic runs — see ``ProgrammableSwitch.receive_batch``.

The structures' batch kernels each fold the salt prefix into the CRC
seed (:func:`~repro.dataplane.registers.salt_seed`) and hash inline.
They are contractually byte-identical to the scalar calls they replace;
the property tests in ``tests/dataplane/test_batch.py`` enforce this
over 50 seeds.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from operator import is_
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.packet import Packet

__all__ = ["PacketBatch"]

#: Column name -> array typecode for the numeric columns.
_NUMERIC_COLUMNS = {
    "sport": "l",
    "dport": "l",
    "ttl": "l",
    "tcp_flags": "l",
    "size_bytes": "q",
    "ts": "d",
}

#: Dedicated builders for the hot columns: a direct-attribute list
#: comprehension is ~2x faster than the generic getattr path, and these
#: run once per column per batch on the fast path.
_COLUMN_BUILDERS = {
    "src": lambda ps: [p.src for p in ps],
    "dst": lambda ps: [p.dst for p in ps],
    "kind": lambda ps: [p.kind for p in ps],
    "proto": lambda ps: [p.proto for p in ps],
    "sport": lambda ps: array("l", [p.sport for p in ps]),
    "dport": lambda ps: array("l", [p.dport for p in ps]),
    "ttl": lambda ps: array("l", [p.ttl for p in ps]),
    "tcp_flags": lambda ps: array("l", [p.tcp_flags for p in ps]),
    "size_bytes": lambda ps: array("q", [p.size_bytes for p in ps]),
    "ts": lambda ps: array("d", [p.created_at for p in ps]),
}

_DATA_KIND: Any = None


def _data_kind() -> Any:
    """The ``PacketKind.DATA`` sentinel, imported lazily to keep this
    module free of netsim imports at import time (netsim's switch layer
    imports us)."""
    global _DATA_KIND
    if _DATA_KIND is None:
        from ..netsim.packet import PacketKind
        _DATA_KIND = PacketKind.DATA
    return _DATA_KIND


class PacketBatch:
    """A window of packets viewed as parallel columns plus a live mask.

    The batch wraps the underlying :class:`~repro.netsim.packet.Packet`
    objects (the simulator still delivers real packets end-to-end) and
    materializes structure-of-arrays columns on first access.  Pipeline
    stages communicate through the ``alive`` mask: a stage drops packet
    ``i`` with :meth:`drop`, and later stages only see survivors.
    """

    __slots__ = ("packets", "alive", "overrides", "dropped", "consumed",
                 "_columns", "_data_mask", "_data_alive", "_alive_n")

    def __init__(self, packets: Sequence["Packet"]):
        self.packets: List["Packet"] = list(packets)
        #: 1 = still in the pipeline, 0 = dropped/consumed.  Mutate only
        #: through drop()/consume()/kill() so the cached counts and the
        #: data mask stay in sync.
        self.alive = bytearray([1]) * len(self.packets)
        self._alive_n = len(self.packets)
        #: Per-packet Forward overrides set by fallback program results.
        self.overrides: Dict[int, str] = {}
        self.dropped = 0
        self.consumed = 0
        self._columns: Dict[str, Any] = {}
        self._data_mask: Optional[bytearray] = None
        self._data_alive = 0

    # ------------------------------------------------------------------
    # Columns (lazy, cached)
    # ------------------------------------------------------------------
    def column(self, name: str) -> Sequence[Any]:
        """The named column as a parallel array (cached after first use)."""
        col = self._columns.get(name)
        if col is None:
            builder = _COLUMN_BUILDERS.get(name)
            if builder is not None:
                col = builder(self.packets)
            elif name == "flow_tuple":
                col = list(zip(self.column("src"), self.column("dst"),
                               self.column("proto"), self.column("sport"),
                               self.column("dport")))
            elif name == "flow_key":
                # One FlowKey object per *unique* 5-tuple: flow keys are
                # value objects, so sharing them across packets of the
                # same flow is observationally identical and skips the
                # per-packet dataclass construction.  Two C-speed passes
                # (dedupe, then gather) instead of a per-packet Python
                # loop; dict(zip(...)) keeps first-occurrence key order.
                tups = self.column("flow_tuple")
                mapping = {tup: packet.flow_key for tup, packet
                           in dict(zip(tups, self.packets)).items()}
                self._columns["_unique_flow_keys"] = list(mapping.values())
                col = list(map(mapping.__getitem__, tups))
            else:
                col = [getattr(p, name) for p in self.packets]
            self._columns[name] = col
        return col

    @property
    def src(self) -> List[str]:
        return self.column("src")  # type: ignore[return-value]

    @property
    def dst(self) -> List[str]:
        return self.column("dst")  # type: ignore[return-value]

    @property
    def sport(self) -> Sequence[int]:
        return self.column("sport")

    @property
    def size_bytes(self) -> Sequence[int]:
        return self.column("size_bytes")

    @property
    def ts(self) -> Sequence[float]:
        """Creation timestamps (the coalesced window stamp)."""
        return self.column("ts")

    @property
    def flow_keys(self) -> Sequence[Any]:
        return self.column("flow_key")

    def unique_flow_keys(self) -> List[Any]:
        """Unique flow keys in first-occurrence order, over *all*
        packets of the batch regardless of liveness (callers gating on
        the alive mask must still apply it per index)."""
        col = self._columns.get("_unique_flow_keys")
        if col is None:
            self.column("flow_key")
            col = self._columns["_unique_flow_keys"]
        return col

    def data_mask(self) -> bytearray:
        """``1`` where the packet is DATA *and* still alive — the kind
        gate every booster kernel applies before touching its state.

        Built once and maintained incrementally by :meth:`drop`,
        :meth:`consume`, and :meth:`kill` (packet kinds never change
        mid-batch), so repeated calls from successive pipeline stages
        are O(1)."""
        mask = self._data_mask
        if mask is None:
            data = _data_kind()
            kinds = self.column("kind")
            if self._alive_n == len(self.packets):
                # No stage has removed a packet yet: identity-compare
                # the kind column at C speed.
                mask = bytearray(map(is_, kinds, repeat(data)))
            else:
                alive = self.alive
                mask = bytearray(
                    1 if (alive[i] and k is data) else 0
                    for i, k in enumerate(kinds))
            self._data_mask = mask
            self._data_alive = sum(mask)
        return mask

    @property
    def all_data(self) -> bool:
        """True when every packet in the batch is a still-alive DATA
        packet (only meaningful after :meth:`data_mask` has been built) —
        the condition under which kernels may consume whole columns
        without gather loops."""
        return (self._data_mask is not None
                and self._data_alive == len(self.packets))

    # ------------------------------------------------------------------
    # Live-mask bookkeeping
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.packets)

    def alive_count(self) -> int:
        return self._alive_n

    def drop(self, index: int, reason: str) -> None:
        """Drop packet ``index`` (first reason wins, as on the
        per-packet path)."""
        if self.alive[index]:
            self.alive[index] = 0
            self._alive_n -= 1
            self.dropped += 1
            self.packets[index].mark_dropped(reason)
            mask = self._data_mask
            if mask is not None and mask[index]:
                mask[index] = 0
                self._data_alive -= 1

    def consume(self, index: int) -> None:
        """Absorb packet ``index`` (probe terminating here)."""
        if self.alive[index]:
            self.alive[index] = 0
            self._alive_n -= 1
            self.consumed += 1
            mask = self._data_mask
            if mask is not None and mask[index]:
                mask[index] = 0
                self._data_alive -= 1

    def kill(self, index: int) -> None:
        """Remove packet ``index`` from the pipeline *silently* — no drop
        or consume bookkeeping.  Used when another mechanism takes over
        the packet (e.g. TTL expiry hands it to the ICMP reply path)."""
        if self.alive[index]:
            self.alive[index] = 0
            self._alive_n -= 1
            mask = self._data_mask
            if mask is not None and mask[index]:
                mask[index] = 0
                self._data_alive -= 1

    def survivors(self) -> Iterator[Tuple[int, "Packet"]]:
        """(index, packet) pairs still alive, in arrival order."""
        alive = self.alive
        packets = self.packets
        for i in range(len(packets)):
            if alive[i]:
                yield i, packets[i]

    def __repr__(self) -> str:
        return (f"PacketBatch({len(self.packets)} pkts, "
                f"alive={self.alive_count()}, dropped={self.dropped}, "
                f"consumed={self.consumed})")
