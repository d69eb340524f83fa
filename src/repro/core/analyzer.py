"""The program analyzer: joint analysis and module sharing (Figure 1b).

Takes every booster's dataflow graph, finds functionally equivalent PPMs
across boosters (plus parsers that can be merged into one union parser),
and produces a single merged dataflow graph in which each shared function
appears once.  The merged graph is what the scheduler places onto the
network, and the resource savings from merging are the Figure 1a-b
benchmark's headline numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..dataplane.resources import ResourceVector
from .dataflow import DataflowGraph
from .equivalence import EquivalenceClasses, merge_parsers
from .ppm import PpmKind, PpmSpec


@dataclass
class MergeReport:
    """What the joint analysis found and saved."""

    total_ppms_before: int = 0
    total_ppms_after: int = 0
    shared_groups: int = 0
    requirement_before: ResourceVector = field(
        default_factory=ResourceVector.zero)
    requirement_after: ResourceVector = field(
        default_factory=ResourceVector.zero)

    @property
    def savings(self) -> ResourceVector:
        return self.requirement_before - self.requirement_after

    def module_table(self, graph: "MergedGraph") -> List[Tuple[str, float, float, float]]:
        """Rows like the paper's Figure 1 module table:
        (module, stages, SRAM MB, TCAM KB)."""
        rows = []
        for spec in graph.merged.ppms():
            req = spec.requirement
            rows.append((spec.qualified_name, req.stages, req.sram_mb,
                         req.tcam_kb))
        return sorted(rows)


@dataclass
class MergedGraph:
    """The merged dataflow graph plus provenance mapping."""

    merged: DataflowGraph
    #: original qualified PPM name -> merged node name.
    mapping: Dict[str, str] = field(default_factory=dict)
    report: MergeReport = field(default_factory=MergeReport)

    def merged_name(self, original: str) -> str:
        try:
            return self.mapping[original]
        except KeyError:
            raise KeyError(
                f"no merged node for {original!r}; known: "
                f"{sorted(self.mapping)[:10]}...") from None


class ProgramAnalyzer:
    """Runs the joint analysis of Figure 1 steps (a) -> (b)."""

    def __init__(self, merge_all_parsers: bool = True):
        #: Real switches run a single parser; merging every booster's
        #: parser into one union parser models that.  Disable to only
        #: share exactly-equal parsers (used by the sharing ablation).
        self.merge_all_parsers = merge_all_parsers

    def merge(self, graphs: List[DataflowGraph],
              name: str = "merged") -> MergedGraph:
        if not graphs:
            raise ValueError("need at least one booster dataflow graph")
        all_specs: List[PpmSpec] = []
        for graph in graphs:
            all_specs.extend(graph.ppms())
        if not all_specs:
            raise ValueError("booster graphs contain no PPMs")

        merged = DataflowGraph(name)
        mapping: Dict[str, str] = {}

        parsers = [s for s in all_specs if s.kind == PpmKind.PARSER]
        others = [s for s in all_specs if s.kind != PpmKind.PARSER]

        if parsers:
            if self.merge_all_parsers:
                union = merge_parsers(parsers, name="shared.parser")
                merged.add_ppm(union)
                for spec in parsers:
                    mapping[spec.qualified_name] = union.qualified_name
            else:
                self._merge_equal(parsers, merged, mapping)

        self._merge_equal(others, merged, mapping)

        # Re-map edges onto merged nodes, summing weights of collapsed
        # parallel edges and dropping edges that became self-edges.
        weights: Dict[Tuple[str, str], float] = {}
        for graph in graphs:
            for edge in graph.edges():
                src = mapping[edge.src]
                dst = mapping[edge.dst]
                if src == dst:
                    continue
                weights[(src, dst)] = weights.get((src, dst), 0.0) + edge.weight
        for (src, dst), weight in sorted(weights.items()):
            merged.add_edge(src, dst, weight)

        report = MergeReport(
            total_ppms_before=len(all_specs),
            total_ppms_after=len(merged),
            shared_groups=sum(
                1 for node in {mapping[s.qualified_name] for s in all_specs}
                if sum(1 for v in mapping.values() if v == node) > 1),
            requirement_before=ResourceVector.total(
                s.requirement for s in all_specs),
            requirement_after=merged.total_requirement(),
        )
        return MergedGraph(merged=merged, mapping=mapping, report=report)

    @staticmethod
    def _merge_equal(specs: List[PpmSpec], merged: DataflowGraph,
                     mapping: Dict[str, str]) -> None:
        classes = EquivalenceClasses.partition(specs)
        for signature, members in classes.groups.items():
            representative = members[0]
            if len(members) > 1:
                # Rename the shared instance so provenance is obvious;
                # disambiguate if two shared groups carry the same name.
                shared_name = representative.name
                suffix = 1
                while f"shared.{shared_name}" in merged:
                    suffix += 1
                    shared_name = f"{representative.name}{suffix}"
                shared = PpmSpec(
                    name=shared_name, kind=representative.kind,
                    role=representative.role,
                    requirement=representative.requirement,
                    params=dict(representative.params),
                    factory=representative.factory, booster="shared")
                node = merged.add_ppm(shared)
            else:
                node = merged.add_ppm(representative)
            for member in members:
                mapping[member.qualified_name] = node.qualified_name
