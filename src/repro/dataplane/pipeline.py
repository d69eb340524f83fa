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
from typing import Dict, List, Sequence

from .resources import ResourceVector


class MatchKind(enum.Enum):
    """How a table matches its key (determines SRAM vs TCAM)."""

    EXACT = "exact"
    TERNARY = "ternary"
    LPM = "lpm"


class MatchActionTable:
    """A P4-style table declaration: its match kind and size decide the
    SRAM or TCAM it occupies in a stage."""

    def __init__(self, name: str, match_kind: MatchKind = MatchKind.EXACT,
                 max_entries: int = 1024, entry_bytes: int = 16):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.name = name
        self.match_kind = match_kind
        self.max_entries = max_entries
        self.entry_bytes = entry_bytes

    def memory_requirement(self) -> ResourceVector:
        total = self.max_entries * self.entry_bytes
        if self.match_kind == MatchKind.EXACT:
            return ResourceVector(sram_mb=total / 1e6)
        return ResourceVector(tcam_kb=total / 1e3)


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
