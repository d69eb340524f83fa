"""HashPipe: heavy-hitter detection entirely in the data plane.

Implements the multi-stage pipelined heavy-hitter table of Sivaraman et
al. (SOSR '17), which the paper cites as a building-block defense against
volumetric DDoS ([69, 70]).  Each stage holds (key, count) slots; a packet
either increments its key's counter, claims an empty slot, or — in the
"always insert in the first stage" discipline — evicts the incumbent and
carries it to the next stage, where the smaller of the two survives
eviction.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from .registers import salt_seed, stable_hash
from .resources import ResourceVector


@dataclass(slots=True)
class _Slot:
    key: Optional[Hashable] = None
    count: int = 0


class HashPipe:
    """A d-stage HashPipe table tracking approximate per-key counts."""

    def __init__(self, name: str, stages: int = 4, slots_per_stage: int = 64):
        if stages <= 0:
            raise ValueError(f"stages must be positive, got {stages}")
        if slots_per_stage <= 0:
            raise ValueError(
                f"slots_per_stage must be positive, got {slots_per_stage}")
        self.name = name
        self.n_stages = stages
        self.slots_per_stage = slots_per_stage
        self._stages: List[List[_Slot]] = [
            [_Slot() for _ in range(slots_per_stage)] for _ in range(stages)]
        self.total = 0
        # key -> its slot object per stage.  Slot positions are fixed for
        # the table's lifetime (clear()/import_state() mutate slots in
        # place), so these memos never go stale; they are only bounded.
        self._slot_caches: List[Dict[Hashable, _Slot]] = [
            {} for _ in range(stages)]

    #: Per-stage key->slot memos are cleared past this many entries so an
    #: adversarial key stream cannot grow them without bound.
    _SLOT_CACHE_MAX = 1 << 16

    # ------------------------------------------------------------------
    def _slot(self, stage: int, key: Hashable) -> _Slot:
        index = stable_hash(key, salt=stage) % self.slots_per_stage
        return self._stages[stage][index]

    def update(self, key: Hashable, count: int = 1) -> None:
        """Process one packet of ``key`` through the pipeline."""
        if count < 0:
            raise ValueError("HashPipe does not support decrements")
        self.total += count

        # Stage 0: always insert.  If occupied by another key, evict it and
        # carry it (with its count) down the pipeline.
        slot = self._slot(0, key)
        if slot.key == key:
            slot.count += count
            return
        carried_key, carried_count = slot.key, slot.count
        slot.key, slot.count = key, count
        if carried_key is None:
            return

        # Later stages: keep the larger of (resident, carried).
        for stage in range(1, self.n_stages):
            slot = self._slot(stage, carried_key)
            if slot.key == carried_key:
                slot.count += carried_count
                return
            if slot.key is None:
                slot.key, slot.count = carried_key, carried_count
                return
            if slot.count < carried_count:
                slot.key, carried_key = carried_key, slot.key
                slot.count, carried_count = carried_count, slot.count
        # The final carried entry falls off the pipe (approximation error).

    # ------------------------------------------------------------------
    # Batch kernel (see DESIGN.md "Batch data plane").  The eviction
    # discipline is order-dependent, so the batch path replays packets in
    # order — the vectorization is in the hashing: each key resolves to
    # its per-stage slot object once *ever* (persistent memos; slot
    # positions are fixed for the table's lifetime), so the steady-state
    # per-packet cost is one dict probe plus one saturating add.
    # ------------------------------------------------------------------
    def update_batch(self, keys: Sequence[Hashable],
                     counts: Optional[Sequence[int]] = None) -> None:
        """Vectorized :meth:`update`; byte-identical end state."""
        n = len(keys)
        if counts is not None:
            if len(counts) != n:
                raise ValueError(
                    f"{self.name}: key/count column length mismatch "
                    f"({n} vs {len(counts)})")
            if n and min(counts) < 0:
                raise ValueError("HashPipe does not support decrements")
            batch_total = sum(counts)
            pairs = zip(keys, counts)
        else:
            batch_total = n
            pairs = zip(keys, repeat(1, n))
        caches = self._slot_caches
        if len(caches[0]) > self._SLOT_CACHE_MAX:
            for cache in caches:
                cache.clear()
        cache0 = caches[0]
        cache0_get = cache0.get
        stages = self._stages
        stage0 = stages[0]
        n_stages = self.n_stages
        slots = self.slots_per_stage
        crc = zlib.crc32
        seeds = [salt_seed(stage) for stage in range(n_stages)]
        seed0 = seeds[0]
        for key, count in pairs:
            slot = cache0_get(key)
            if slot is None:
                slot = stage0[crc(repr(key).encode(), seed0) % slots]
                cache0[key] = slot
            if slot.key == key:
                slot.count += count
                continue
            carried_key, carried_count = slot.key, slot.count
            slot.key, slot.count = key, count
            if carried_key is None:
                continue
            for stage in range(1, n_stages):
                cache = caches[stage]
                slot = cache.get(carried_key)
                if slot is None:
                    slot = stages[stage][
                        crc(repr(carried_key).encode(), seeds[stage])
                        % slots]
                    cache[carried_key] = slot
                if slot.key == carried_key:
                    slot.count += carried_count
                    carried_key = None
                    break
                if slot.key is None:
                    slot.key, slot.count = carried_key, carried_count
                    carried_key = None
                    break
                if slot.count < carried_count:
                    slot.key, carried_key = carried_key, slot.key
                    slot.count, carried_count = carried_count, slot.count
            # A still-carried entry falls off the pipe, as in update().
        self.total += batch_total

    def update_batch_reference(self, keys: Sequence[Hashable],
                               counts: Optional[Sequence[int]] = None
                               ) -> None:
        """Sequential twin of :meth:`update_batch` (property-test oracle)."""
        if counts is None:
            for key in keys:
                self.update(key)
        else:
            for key, count in zip(keys, counts):
                self.update(key, count)

    def estimate(self, key: Hashable) -> int:
        """Sum of this key's counters across stages (never over-counts a
        key's true total by design; may under-count after evictions)."""
        return sum(self._slot(stage, key).count
                   for stage in range(self.n_stages)
                   if self._slot(stage, key).key == key)

    def heavy_hitters(self, threshold: int) -> Dict[Hashable, int]:
        """All tracked keys whose summed count meets the threshold."""
        totals: Dict[Hashable, int] = {}
        for stage in self._stages:
            for slot in stage:
                if slot.key is not None:
                    totals[slot.key] = totals.get(slot.key, 0) + slot.count
        return {k: v for k, v in totals.items() if v >= threshold}

    def top_k(self, k: int) -> List[Tuple[Hashable, int]]:
        totals = self.heavy_hitters(threshold=1)
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        return ranked[:k]

    def clear(self) -> None:
        for stage in self._stages:
            for slot in stage:
                slot.key, slot.count = None, 0
        self.total = 0

    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "stages": [[(slot.key, slot.count) for slot in stage]
                       for stage in self._stages],
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        if len(state["stages"]) != self.n_stages:
            raise ValueError(f"{self.name}: stage-count mismatch in snapshot")
        self.total = state["total"]
        for stage, saved in zip(self._stages, state["stages"]):
            if len(saved) != self.slots_per_stage:
                raise ValueError(f"{self.name}: slot-count mismatch")
            for slot, (key, count) in zip(stage, saved):
                slot.key, slot.count = key, count

    def resource_requirement(self) -> ResourceVector:
        # Each slot stores a key (~8B) and a 32-bit count.
        sram = self.n_stages * self.slots_per_stage * 12 / 1e6
        return ResourceVector(stages=self.n_stages, sram_mb=sram,
                              tcam_kb=0, alus=2 * self.n_stages)

    def __repr__(self) -> str:
        return (f"HashPipe({self.name!r}, {self.n_stages}x"
                f"{self.slots_per_stage}, total={self.total})")
