"""Bloom filter: shareable membership structure for boosters.

Used by the hop-count filter (has this source been validated?) and the
packet-dropping booster (is this flow on the blocklist?).  No false
negatives, tunable false-positive rate.
"""

from __future__ import annotations

import math
import zlib
from typing import Any, Dict, Sequence

from .registers import RegisterArray, salt_seed, stable_hash
from .resources import ResourceVector


class BloomFilter:
    """A standard Bloom filter over one bit-per-cell register array."""

    def __init__(self, name: str, size_bits: int = 8192, n_hashes: int = 4):
        if n_hashes <= 0:
            raise ValueError(f"n_hashes must be positive, got {n_hashes}")
        self.name = name
        self.size_bits = size_bits
        self.n_hashes = n_hashes
        self.bits = RegisterArray(f"{name}.bits", size_bits, width_bits=1)
        self.inserted = 0
        #: Bumped on every write (add/add_batch/clear/import_state) so
        #: callers can cache membership verdicts between writes: a bloom
        #: only changes answers when its bits change.
        self.mutations = 0

    @classmethod
    def for_capacity(cls, name: str, capacity: int,
                     fp_rate: float = 0.01) -> "BloomFilter":
        """Size the filter for ``capacity`` items at the target FP rate."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < fp_rate < 1:
            raise ValueError("fp_rate must be in (0, 1)")
        size = math.ceil(-capacity * math.log(fp_rate) / (math.log(2) ** 2))
        hashes = max(1, round(size / capacity * math.log(2)))
        return cls(name, size_bits=size, n_hashes=hashes)

    # ------------------------------------------------------------------
    def add(self, key: Any) -> None:
        for salt in range(self.n_hashes):
            self.bits.write(self._index(key, salt), 1)
        self.inserted += 1
        self.mutations += 1

    def __contains__(self, key: Any) -> bool:
        return all(self.bits.read(self._index(key, salt))
                   for salt in range(self.n_hashes))

    def _index(self, key: Any, salt: int) -> int:
        return stable_hash(key, salt) % self.size_bits

    # ------------------------------------------------------------------
    # Batch kernel (see DESIGN.md "Batch data plane"): bit writes are
    # idempotent, so each unique key is encoded and hashed exactly once
    # per salt; end state is byte-identical to the sequential loop.
    # ------------------------------------------------------------------
    def add_batch(self, keys: Sequence[Any]) -> None:
        """Vectorized :meth:`add` over a key column."""
        unique: Dict[Any, None] = dict.fromkeys(keys)
        encoded = [repr(key).encode() for key in unique]
        crc = zlib.crc32
        size = self.size_bits
        cells = self.bits._cells
        for salt in range(self.n_hashes):
            seed = salt_seed(salt)
            for kb in encoded:
                cells[crc(kb, seed) % size] = 1
        self.inserted += len(keys)
        self.mutations += 1

    def add_batch_reference(self, keys: Sequence[Any]) -> None:
        """Sequential twin of :meth:`add_batch` (property-test oracle)."""
        for key in keys:
            self.add(key)

    def clear(self) -> None:
        self.bits.clear()
        self.inserted = 0
        self.mutations += 1

    def expected_fp_rate(self) -> float:
        """The FP rate implied by the current fill level."""
        if self.inserted == 0:
            return 0.0
        fill = 1.0 - math.exp(-self.n_hashes * self.inserted / self.size_bits)
        return fill ** self.n_hashes

    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        return {"inserted": self.inserted,
                "bits": self.bits.export_state()}

    def import_state(self, state: Dict[str, Any]) -> None:
        self.inserted = state["inserted"]
        self.bits.import_state(state["bits"])
        self.mutations += 1

    def resource_requirement(self) -> ResourceVector:
        return ResourceVector(stages=1, sram_mb=self.bits.sram_cost_mb(),
                              tcam_kb=0, alus=self.n_hashes)

    def __repr__(self) -> str:
        return (f"BloomFilter({self.name!r}, {self.size_bits}b, "
                f"k={self.n_hashes}, n={self.inserted})")
