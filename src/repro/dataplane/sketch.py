"""Count-min sketch: the shared probabilistic counter of many boosters.

Section 3.1 names "probabilistic data structures such as sketches and
bloom filters" as prime candidates for sharing across boosters; this
count-min sketch is the concrete instance our heavy-hitter, DDoS, and
rate-limiting boosters declare as a shareable PPM.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from typing import Any, Dict, Optional, Sequence

from .registers import RegisterArray, salt_seed
from .resources import ResourceVector


class CountMinSketch:
    """A standard count-min sketch over hashed keys.

    Guarantees: estimates never under-count, and with ``depth`` rows of
    ``width`` cells the over-count is at most ``total/width`` with
    probability ``1 - 2^-depth`` (up to saturation of the cell width).
    """

    def __init__(self, name: str, width: int = 1024, depth: int = 4,
                 width_bits: int = 32):
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        self.name = name
        self.width = width
        self.depth = depth
        self.rows = [RegisterArray(f"{name}.row{i}", width, width_bits)
                     for i in range(depth)]
        self.total = 0

    @classmethod
    def for_error(cls, name: str, epsilon: float, delta: float,
                  width_bits: int = 32) -> "CountMinSketch":
        """Size the sketch for error ``epsilon`` at confidence ``1-delta``."""
        if not 0 < epsilon < 1 or not 0 < delta < 1:
            raise ValueError("epsilon and delta must be in (0, 1)")
        width = math.ceil(math.e / epsilon)
        depth = math.ceil(math.log(1 / delta))
        return cls(name, width=width, depth=max(depth, 1),
                   width_bits=width_bits)

    # ------------------------------------------------------------------
    def update(self, key: Any, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count-min does not support decrements")
        for salt, row in enumerate(self.rows):
            row.add(row.index_for(key, salt), count)
        self.total += count

    def estimate(self, key: Any) -> int:
        return min(row.read(row.index_for(key, salt))
                   for salt, row in enumerate(self.rows))

    # ------------------------------------------------------------------
    # Batch kernel (see DESIGN.md "Batch data plane"): byte-identical
    # end state to the sequential loop, one key encode + one CRC pass
    # per (row, unique key), one saturating write per touched cell.
    # ------------------------------------------------------------------
    def update_batch(self, keys: Sequence[Any],
                     counts: Optional[Sequence[int]] = None) -> None:
        """Vectorized :meth:`update` over a key column.

        Counts default to 1 per key.  Saturating adds of non-negative
        increments commute, so per-key totals can be folded before any
        cell is touched without changing the final register state.
        """
        totals: Dict[Any, int]
        if counts is None:
            totals = Counter(keys)
            batch_total = len(keys)
        else:
            if len(keys) != len(counts):
                raise ValueError(
                    f"{self.name}: key/count column length mismatch "
                    f"({len(keys)} vs {len(counts)})")
            # Counter(zip(...)) folds duplicate (key, count) pairs at C
            # speed; the Python loop then runs over unique pairs only.
            totals = {}
            get = totals.get
            batch_total = 0
            for (key, count), mult in Counter(zip(keys, counts)).items():
                if count < 0:
                    raise ValueError(
                        "count-min does not support decrements")
                added = count * mult
                totals[key] = get(key, 0) + added
                batch_total += added
        encoded = [repr(key).encode() for key in totals]
        deltas = list(totals.values())
        crc = zlib.crc32
        for salt, row in enumerate(self.rows):
            seed = salt_seed(salt)
            width = row.size
            row.add_batch([crc(kb, seed) % width for kb in encoded],
                          deltas)
        self.total += batch_total

    def update_batch_reference(self, keys: Sequence[Any],
                               counts: Optional[Sequence[int]] = None
                               ) -> None:
        """Sequential twin of :meth:`update_batch` (property-test oracle)."""
        if counts is None:
            for key in keys:
                self.update(key)
        else:
            for key, count in zip(keys, counts):
                self.update(key, count)

    def clear(self) -> None:
        for row in self.rows:
            row.clear()
        self.total = 0

    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        return {"total": self.total,
                "rows": [row.export_state() for row in self.rows]}

    def import_state(self, state: Dict[str, Any]) -> None:
        if len(state["rows"]) != self.depth:
            raise ValueError(f"{self.name}: depth mismatch in snapshot")
        self.total = state["total"]
        for row, snapshot in zip(self.rows, state["rows"]):
            row.import_state(snapshot)

    def resource_requirement(self) -> ResourceVector:
        sram = sum(row.sram_cost_mb() for row in self.rows)
        return ResourceVector(stages=self.depth, sram_mb=sram,
                              tcam_kb=0, alus=self.depth)

    def __repr__(self) -> str:
        return (f"CountMinSketch({self.name!r}, {self.depth}x{self.width}, "
                f"total={self.total})")
