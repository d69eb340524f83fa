"""Register arrays: the stateful memory of a P4-style pipeline.

Hardware registers are fixed-size arrays of bounded integers updated by
stateful ALUs.  :class:`RegisterArray` models that: indices are hashed or
direct, values saturate at the cell width, and the whole array can be
exported/imported — which is what FastFlex's state transfer moves between
switches (Section 3.4).
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterator, List, Sequence

from .resources import ResourceVector


def stable_hash(value: Any, salt: int = 0) -> int:
    """A deterministic, process-independent hash (CRC32 over repr+salt).

    Python's builtin ``hash`` is randomized per process for strings, which
    would make runs irreproducible; every data-plane structure hashes
    through this instead.
    """
    data = f"{salt}|{value!r}".encode()
    return zlib.crc32(data)


#: Memoized CRC states after consuming the ``f"{salt}|"`` prefix.  CRC32
#: composes — ``crc32(a + b) == crc32(b, crc32(a))`` — so folding the
#: salt prefix once lets a batch hash each key with a single CRC pass
#: per (column, salt) instead of re-encoding the prefix per packet.
_SALT_SEEDS: Dict[int, int] = {}


def salt_seed(salt: int) -> int:
    """CRC32 state with the salt prefix folded in:
    ``crc32(repr(key).encode(), salt_seed(salt)) == stable_hash(key, salt)``.
    The batch kernels hash through this."""
    seed = _SALT_SEEDS.get(salt)
    if seed is None:
        seed = zlib.crc32(f"{salt}|".encode())
        _SALT_SEEDS[salt] = seed
    return seed


class RegisterArray:
    """A bounded-width register array with saturating arithmetic."""

    def __init__(self, name: str, size: int, width_bits: int = 32):
        if size <= 0:
            raise ValueError(f"register array size must be positive, got {size}")
        if width_bits <= 0 or width_bits > 64:
            raise ValueError(f"width_bits must be in 1..64, got {width_bits}")
        self.name = name
        self.size = size
        self.width_bits = width_bits
        self.max_value = (1 << width_bits) - 1
        self._cells: List[int] = [0] * size

    # ------------------------------------------------------------------
    def _check_index(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise IndexError(
                f"{self.name}: index {index} out of range [0, {self.size})")
        return index

    def index_for(self, key: Any, salt: int = 0) -> int:
        """Hash an arbitrary key to a cell index."""
        return stable_hash(key, salt) % self.size

    # ------------------------------------------------------------------
    def read(self, index: int) -> int:
        return self._cells[self._check_index(index)]

    def write(self, index: int, value: int) -> None:
        self._cells[self._check_index(index)] = max(
            0, min(int(value), self.max_value))

    def add(self, index: int, delta: int = 1) -> int:
        """Saturating add; returns the new value."""
        new = self.read(index) + delta
        self.write(index, new)
        return self.read(index)

    def maximum(self, index: int, value: int) -> int:
        """Write ``max(current, value)``; returns the new value."""
        new = max(self.read(index), int(value))
        self.write(index, new)
        return self.read(index)

    # ------------------------------------------------------------------
    # Batch kernel (see DESIGN.md "Batch data plane")
    # ------------------------------------------------------------------
    def add_batch(self, indices: Sequence[int],
                  deltas: Sequence[int]) -> None:
        """Saturating add of ``deltas[i]`` at ``indices[i]``.

        Requires non-negative deltas: saturating addition of non-negative
        increments is order-independent (the final cell value is
        ``min(max_value, current + sum)``), which is what lets the batch
        path accumulate per-cell totals and issue one write per touched
        cell while staying byte-identical to sequential :meth:`add` calls.
        """
        if len(indices) != len(deltas):
            raise ValueError(
                f"{self.name}: index/delta column length mismatch "
                f"({len(indices)} vs {len(deltas)})")
        totals: Dict[int, int] = {}
        get = totals.get
        for index, delta in zip(indices, deltas):
            if delta < 0:
                raise ValueError(
                    f"{self.name}: add_batch requires non-negative "
                    f"deltas, got {delta}")
            totals[index] = get(index, 0) + delta
        cells = self._cells
        max_value = self.max_value
        for index, delta in totals.items():
            self._check_index(index)
            new = cells[index] + delta
            cells[index] = max_value if new > max_value else new

    def clear(self) -> None:
        self._cells = [0] * self.size

    def nonzero(self) -> Iterator[int]:
        return (i for i, v in enumerate(self._cells) if v)

    # ------------------------------------------------------------------
    # State transfer support
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Sparse snapshot of nonzero cells (what gets piggybacked)."""
        return {
            "name": self.name,
            "size": self.size,
            "width_bits": self.width_bits,
            "cells": {i: self._cells[i] for i in self.nonzero()},
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        if state["size"] != self.size or state["width_bits"] != self.width_bits:
            raise ValueError(
                f"{self.name}: incompatible snapshot "
                f"(size {state['size']} vs {self.size})")
        self.clear()
        for index, value in state["cells"].items():
            self.write(int(index), value)

    # ------------------------------------------------------------------
    def sram_cost_mb(self) -> float:
        """Approximate SRAM footprint in MB."""
        return self.size * self.width_bits / 8 / 1e6

    def resource_requirement(self) -> ResourceVector:
        return ResourceVector(stages=0, sram_mb=self.sram_cost_mb(),
                              tcam_kb=0, alus=1)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (f"RegisterArray({self.name!r}, size={self.size}, "
                f"width={self.width_bits}b)")
