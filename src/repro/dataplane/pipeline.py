"""Match-action tables and per-stage placement inside one switch.

The coarse feasibility check lives in
:class:`~repro.dataplane.resources.ResourceLedger`; this module models the
finer structure: a pipeline is a sequence of physical stages, each with
its own SRAM/TCAM slice, and match-action tables must be laid out onto
stages respecting both memory and the dependency order between tables
(a table reading a value another writes must sit in a later stage).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .resources import ResourceVector


class MatchKind(enum.Enum):
    """How a table matches its key (determines SRAM vs TCAM)."""

    EXACT = "exact"
    TERNARY = "ternary"
    LPM = "lpm"


@dataclass
class TableEntry:
    """One installed rule: match value -> action name + parameters."""

    match: Any
    action: str
    params: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0


class MatchActionTable:
    """A P4-style table: keys, entries, and a default action.

    Exact tables keep a hash index over their match values, so lookups
    are O(1) and inserting an already-present match *upserts* the entry
    in place (hardware exact tables have one slot per key — duplicate
    entries would make ``lookup`` return the stale first insert while
    ``delete`` removed both).  Ternary/LPM tables allow overlapping
    entries by design: ties break on priority (higher wins), then on
    insertion order (the earlier entry wins), matching hardware
    first-match-at-highest-priority semantics.
    """

    def __init__(self, name: str, match_kind: MatchKind = MatchKind.EXACT,
                 max_entries: int = 1024, entry_bytes: int = 16,
                 default_action: str = "no_op"):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.name = name
        self.match_kind = match_kind
        self.max_entries = max_entries
        self.entry_bytes = entry_bytes
        self.default_action = default_action
        self._entries: List[TableEntry] = []
        #: Exact-match fast path: match value -> entry.  Disabled (None)
        #: for ternary/LPM tables and for exact tables holding a match
        #: value that is callable or unhashable.
        self._exact_index: Optional[Dict[Any, TableEntry]] = (
            {} if match_kind == MatchKind.EXACT else None)

    def _index_entry(self, entry: TableEntry) -> Optional[TableEntry]:
        """Index ``entry``; returns the displaced duplicate, if any.
        Falls back to scan mode on unindexable match values."""
        if self._exact_index is None:
            return None
        if callable(entry.match):
            self._exact_index = None
            return None
        try:
            previous = self._exact_index.get(entry.match)
            self._exact_index[entry.match] = entry
        except TypeError:  # unhashable match value
            self._exact_index = None
            return None
        return previous

    # ------------------------------------------------------------------
    def insert(self, match: Any, action: str,
               params: Optional[Dict[str, Any]] = None,
               priority: int = 0) -> TableEntry:
        if self._exact_index is not None and not callable(match):
            try:
                existing = self._exact_index.get(match)
            except TypeError:
                existing = None
            if existing is not None:
                # Upsert: one slot per key in an exact table.
                existing.action = action
                existing.params = dict(params or {})
                existing.priority = priority
                return existing
        if len(self._entries) >= self.max_entries:
            raise OverflowError(
                f"table {self.name!r} is full ({self.max_entries} entries)")
        entry = TableEntry(match=match, action=action,
                           params=dict(params or {}), priority=priority)
        self._entries.append(entry)
        self._index_entry(entry)
        return entry

    def delete(self, match: Any) -> int:
        before = len(self._entries)
        self._entries = [e for e in self._entries if e.match != match]
        removed = before - len(self._entries)
        if self._exact_index is not None and removed:
            try:
                self._exact_index.pop(match, None)
            except TypeError:
                pass
        return removed

    def lookup(self, key: Any) -> Tuple[str, Dict[str, Any]]:
        """Return (action, params) for the best-matching entry.

        Exact tables compare equality (O(1) via the hash index);
        ternary/LPM entries may provide a callable match predicate
        (``match(key) -> bool``); ties break on priority (higher wins),
        then insertion order (earlier entry wins).
        """
        if self._exact_index is not None:
            try:
                entry = self._exact_index.get(key)
            except TypeError:
                entry = None
            if entry is None:
                return self.default_action, {}
            return entry.action, entry.params
        best: Optional[TableEntry] = None
        for entry in self._entries:
            matched = (entry.match(key) if callable(entry.match)
                       else entry.match == key)
            if matched and (best is None or entry.priority > best.priority):
                best = entry
        if best is None:
            return self.default_action, {}
        return best.action, best.params

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def memory_requirement(self) -> ResourceVector:
        total = self.max_entries * self.entry_bytes
        if self.match_kind == MatchKind.EXACT:
            return ResourceVector(sram_mb=total / 1e6)
        return ResourceVector(tcam_kb=total / 1e3)

    def __repr__(self) -> str:
        return (f"MatchActionTable({self.name!r}, {self.match_kind.value}, "
                f"{len(self)}/{self.max_entries})")


@dataclass
class StageLayout:
    """The result of laying tables out onto physical stages."""

    #: stage index -> table names placed there.
    assignment: Dict[int, List[str]] = field(default_factory=dict)
    stages_used: int = 0

    def stage_of(self, table: str) -> int:
        for stage, tables in self.assignment.items():
            if table in tables:
                return stage
        raise KeyError(f"table {table!r} is not in the layout")


class PipelineLayoutError(RuntimeError):
    """Raised when tables cannot be laid out within the stage budget."""


def layout_tables(tables: Sequence[MatchActionTable],
                  dependencies: Dict[str, List[str]],
                  n_stages: int,
                  stage_sram_mb: float,
                  stage_tcam_kb: float) -> StageLayout:
    """Greedy dependency-respecting stage assignment.

    ``dependencies[t]`` lists tables that must be placed in a *strictly
    earlier* stage than ``t`` (match dependencies, in RMT terminology).
    Tables are placed in topological order into the earliest stage that
    satisfies both the dependency depth and the per-stage memory budget.
    """
    by_name = {t.name: t for t in tables}
    for name, deps in dependencies.items():
        if name not in by_name:
            raise ValueError(f"dependency source {name!r} is not a table")
        for dep in deps:
            if dep not in by_name:
                raise ValueError(f"dependency target {dep!r} is not a table")

    order = _topological_order(list(by_name), dependencies)
    layout = StageLayout()
    sram_left = [stage_sram_mb] * n_stages
    tcam_left = [stage_tcam_kb] * n_stages
    placed_stage: Dict[str, int] = {}

    for name in order:
        table = by_name[name]
        need = table.memory_requirement()
        min_stage = 0
        for dep in dependencies.get(name, []):
            min_stage = max(min_stage, placed_stage[dep] + 1)
        stage = None
        for candidate in range(min_stage, n_stages):
            if (need.sram_mb <= sram_left[candidate] + 1e-12
                    and need.tcam_kb <= tcam_left[candidate] + 1e-12):
                stage = candidate
                break
        if stage is None:
            raise PipelineLayoutError(
                f"cannot place table {name!r}: needs stage >= {min_stage} "
                f"with {need}, but no stage has room")
        sram_left[stage] -= need.sram_mb
        tcam_left[stage] -= need.tcam_kb
        placed_stage[name] = stage
        layout.assignment.setdefault(stage, []).append(name)

    layout.stages_used = (max(placed_stage.values()) + 1
                          if placed_stage else 0)
    return layout


def _topological_order(names: List[str],
                       dependencies: Dict[str, List[str]]) -> List[str]:
    """Kahn's algorithm; raises on cycles."""
    indegree = {n: 0 for n in names}
    dependents: Dict[str, List[str]] = {n: [] for n in names}
    for name, deps in dependencies.items():
        for dep in deps:
            indegree[name] += 1
            dependents[dep].append(name)
    ready = sorted(n for n, d in indegree.items() if d == 0)
    order: List[str] = []
    while ready:
        name = ready.pop(0)
        order.append(name)
        for succ in sorted(dependents[name]):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
        ready.sort()
    if len(order) != len(names):
        cyclic = sorted(set(names) - set(order))
        raise PipelineLayoutError(f"dependency cycle among {cyclic}")
    return order
