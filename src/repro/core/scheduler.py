"""The scheduler: mapping the merged PPM graph onto the network (Fig. 1c).

Implements Section 3.2's placement strategy:

* **Pervasive detection** — detection PPMs are distributed as widely as
  resources allow, and at minimum onto a set of switches covering every
  traffic path (they must inspect traffic to trigger mode changes).
* **Mitigation downstream** — mitigation PPMs are placed on or
  immediately downstream of each detector, so an attack flagged at a
  detector is mitigated without detour.
* **Support co-location** — parsers and shared state go wherever a
  dependent module lands.
* **Vector bin packing** — all of the above subject to each switch's
  multi-dimensional resource budget (Section 3.1), checked through the
  same :class:`~repro.dataplane.resources.ResourceLedger` the switches
  enforce at install time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from ..dataplane.resources import ResourceLedger, ResourceVector
from ..netsim.routing import Path
from ..netsim.topology import Topology
from .analyzer import MergedGraph
from .ppm import PpmRole, PpmSpec


@dataclass
class PlacementMetrics:
    """Quality measures for a computed placement."""

    detector_switch_count: int = 0
    path_coverage: float = 0.0          # fraction of paths with a detector
    mitigation_colocated: int = 0       # mitigators on their detector switch
    mitigation_downstream: int = 0      # mitigators pushed one hop down
    mitigation_detoured: int = 0        # mitigators placed off-path
    switch_utilization: Dict[str, Dict[str, float]] = field(
        default_factory=dict)


@dataclass
class Placement:
    """Which merged-graph PPMs run on which switches."""

    #: switch name -> PPM specs assigned there.
    assignments: Dict[str, List[PpmSpec]] = field(default_factory=dict)
    metrics: PlacementMetrics = field(default_factory=PlacementMetrics)
    feasible: bool = True
    infeasibility_reasons: List[str] = field(default_factory=list)

    def switches_hosting(self, ppm_name: str) -> List[str]:
        return sorted(sw for sw, specs in self.assignments.items()
                      if any(s.qualified_name == ppm_name for s in specs))


class SchedulerError(RuntimeError):
    """Raised when no feasible placement exists for required modules."""


class Scheduler:
    """Places a merged dataflow graph onto a topology.

    Parameters
    ----------
    pervasive_detection:
        When True, detection PPMs go on *every* switch with room (the
        paper's ideal); when False, only on a minimal path cover (used by
        resource-constrained deployments and the placement ablation).
    """

    def __init__(self, pervasive_detection: bool = True):
        self.pervasive_detection = pervasive_detection

    # ------------------------------------------------------------------
    def place(self, merged: MergedGraph, topo: Topology,
              paths: Sequence[Path]) -> Placement:
        """Compute a placement for the merged graph over the given
        traffic paths (the stable-matrix TE paths of the default mode)."""
        specs = merged.merged.ppms()
        detection = [s for s in specs if s.role == PpmRole.DETECTION]
        mitigation = [s for s in specs if s.role == PpmRole.MITIGATION]
        support = [s for s in specs if s.role == PpmRole.SUPPORT]

        placement = Placement()
        ledgers = {name: ResourceLedger(topo.switch(name).ledger.free)
                   for name in topo.switch_names}
        switch_paths = self._paths_per_switch(topo, paths)

        detector_switches = self._place_detection(
            detection, placement, ledgers, switch_paths, paths)
        self._place_mitigation(
            mitigation, placement, ledgers, detector_switches, topo, paths)
        self._place_support(support, merged, placement, ledgers)
        if self.pervasive_detection:
            # Only after everything has its minimum viable placement is
            # leftover capacity spent widening coverage: detection first
            # (the "ideally on all paths" goal), then mitigation (so
            # defenses like probe-based rerouting run on every hop and
            # attacks are mitigated without detour).
            self._pervasive_fill(detection + mitigation, support, merged,
                                 placement, ledgers)

        detector_switches = sorted(
            switch for switch, assigned in placement.assignments.items()
            if any(s.role == PpmRole.DETECTION for s in assigned))
        self._finalize_metrics(placement, detector_switches,
                               switch_paths, paths, ledgers, topo)
        return placement

    # ------------------------------------------------------------------
    @staticmethod
    def _paths_per_switch(topo: Topology,
                          paths: Sequence[Path]) -> Dict[str, Set[int]]:
        """Which path indices each switch sits on."""
        result: Dict[str, Set[int]] = {name: set()
                                       for name in topo.switch_names}
        for index, path in enumerate(paths):
            for node in path.nodes:
                if node in result:
                    result[node].add(index)
        return result

    def _try_assign(self, spec: PpmSpec, switch: str,
                    placement: Placement,
                    ledgers: Dict[str, ResourceLedger]) -> bool:
        """Allocate one PPM on one switch if it fits (idempotent)."""
        assigned = placement.assignments.setdefault(switch, [])
        if any(s.qualified_name == spec.qualified_name for s in assigned):
            return True
        if not ledgers[switch].can_allocate(spec.requirement):
            return False
        ledgers[switch].allocate(spec.qualified_name, spec.requirement)
        assigned.append(spec)
        return True

    def _place_detection(self, detection: List[PpmSpec],
                         placement: Placement,
                         ledgers: Dict[str, ResourceLedger],
                         switch_paths: Dict[str, Set[int]],
                         paths: Sequence[Path]) -> List[str]:
        """Per detection PPM: greedy path cover (minimum viable placement).

        Each detection module independently needs eyes on every path;
        packing them individually (largest first) lets an oversubscribed
        catalog spread across switches instead of failing as one bundle.
        """
        ordered = sorted(
            detection,
            key=lambda s: (-s.requirement.dominating_fraction(
                ResourceVector.total(l.budget for l in ledgers.values())
                .scaled(1.0 / max(len(ledgers), 1))),
                s.qualified_name))
        detector_switches: Set[str] = set()
        for spec in ordered:
            detector_switches |= self._cover_paths(
                spec, placement, ledgers, switch_paths, paths)
        return sorted(detector_switches)

    def _pervasive_fill(self, specs: List[PpmSpec],
                        support: List[PpmSpec], merged: MergedGraph,
                        placement: Placement,
                        ledgers: Dict[str, ResourceLedger]) -> None:
        """Spend leftover capacity replicating modules widely.

        A module is only added to a switch if its support dependencies
        (e.g. the shared parser) also fit there; otherwise the tentative
        allocation is rolled back.  ``specs`` arrives priority-ordered
        (detection before mitigation) and the fill preserves that order.
        """
        support_by_name = {s.qualified_name: s for s in support}
        for spec in specs:
            # Sorted: dependency order drives _try_assign attempts, so a
            # hash-randomized set union here would make placements
            # differ between processes.
            deps = [support_by_name[n]
                    for n in sorted(
                        set(merged.merged.predecessors(
                            spec.qualified_name))
                        | set(merged.merged.successors(spec.qualified_name)))
                    if n in support_by_name]
            for switch in sorted(ledgers):
                assigned_names = {s.qualified_name
                                  for s in placement.assignments.get(switch,
                                                                     [])}
                if spec.qualified_name in assigned_names:
                    continue
                if not self._try_assign(spec, switch, placement, ledgers):
                    continue
                ok = True
                for dep in deps:
                    if not self._try_assign(dep, switch, placement, ledgers):
                        ok = False
                        break
                if not ok:
                    # Roll back the module; this switch has no room for
                    # its support chain.
                    ledgers[switch].release(spec.qualified_name)
                    placement.assignments[switch] = [
                        s for s in placement.assignments[switch]
                        if s.qualified_name != spec.qualified_name]

    def _cover_paths(self, spec: PpmSpec, placement: Placement,
                     ledgers: Dict[str, ResourceLedger],
                     switch_paths: Dict[str, Set[int]],
                     paths: Sequence[Path]) -> Set[str]:
        """Greedy max-coverage set cover for one PPM."""
        uncovered: Set[int] = set(range(len(paths)))
        hosts: Set[str] = set()
        rejected: Set[str] = set()
        while uncovered:
            candidates = [sw for sw in switch_paths
                          if sw not in hosts and sw not in rejected
                          and switch_paths[sw] & uncovered]
            if not candidates:
                break

            def preference(sw: str):
                # Max coverage first; among ties, the emptiest switch
                # (load-balances big modules across the path cover).
                used = max(ledgers[sw].utilization().values(), default=0.0)
                return (len(switch_paths[sw] & uncovered), -used, sw)

            best = max(candidates, key=preference)
            if self._try_assign(spec, best, placement, ledgers):
                hosts.add(best)
                uncovered -= switch_paths[best]
            else:
                rejected.add(best)
        if uncovered:
            placement.feasible = False
            placement.infeasibility_reasons.append(
                f"{spec.qualified_name}: {len(uncovered)} paths uncovered "
                f"(insufficient switch resources)")
        return hosts

    def _place_mitigation(self, mitigation: List[PpmSpec],
                          placement: Placement,
                          ledgers: Dict[str, ResourceLedger],
                          detector_switches: List[str],
                          topo: Topology,
                          paths: Sequence[Path]) -> None:
        """Each mitigation PPM goes on (or one hop downstream of) the
        switches hosting its booster's detection modules."""
        if not mitigation:
            return
        downstream = self._downstream_neighbors(topo, paths)

        def detection_hosts_for(booster: str) -> List[str]:
            hosts = []
            for switch, assigned in placement.assignments.items():
                for spec in assigned:
                    if (spec.role == PpmRole.DETECTION
                            and (spec.booster == booster
                                 or booster == "shared")):
                        hosts.append(switch)
                        break
            return sorted(hosts) or list(detector_switches)

        for spec in sorted(mitigation, key=lambda s: s.qualified_name):
            anchors = detection_hosts_for(spec.booster)
            if not anchors:
                anchors = sorted(ledgers)
            placed = False
            for anchor in anchors:
                if self._try_assign(spec, anchor, placement, ledgers):
                    placement.metrics.mitigation_colocated += 1
                    placed = True
                    continue
                for candidate in downstream.get(anchor, []):
                    if self._try_assign(spec, candidate, placement, ledgers):
                        placement.metrics.mitigation_downstream += 1
                        placed = True
                        break
            if not placed:
                # Last resort: anywhere with room beats not mitigating at
                # all (traffic detours to it, as with a legacy middlebox).
                for switch in sorted(ledgers):
                    if self._try_assign(spec, switch, placement, ledgers):
                        placement.metrics.mitigation_detoured += 1
                        placed = True
                        break
            if not placed:
                placement.feasible = False
                placement.infeasibility_reasons.append(
                    f"mitigation module {spec.qualified_name} fits nowhere")

    @staticmethod
    def _downstream_neighbors(topo: Topology,
                              paths: Sequence[Path]) -> Dict[str, List[str]]:
        """Per switch, its successors along the traffic paths."""
        result: Dict[str, List[str]] = {}
        switch_set = set(topo.switch_names)
        for path in paths:
            for here, nxt in path.links():
                if here in switch_set and nxt in switch_set:
                    bucket = result.setdefault(here, [])
                    if nxt not in bucket:
                        bucket.append(nxt)
        return result

    def _place_support(self, support: List[PpmSpec], merged: MergedGraph,
                       placement: Placement,
                       ledgers: Dict[str, ResourceLedger]) -> None:
        """Support modules go wherever a connected module landed."""
        for spec in support:
            neighbors = set(merged.merged.successors(spec.qualified_name))
            neighbors |= set(merged.merged.predecessors(spec.qualified_name))
            for switch, assigned in sorted(placement.assignments.items()):
                names_here = {s.qualified_name for s in assigned}
                if spec.qualified_name in names_here:
                    continue
                # A support module is needed if any connected module (or,
                # for parsers with no edges, any module at all) is here.
                needed = (not neighbors and names_here) or \
                    (neighbors & names_here)
                if not needed:
                    continue
                if not self._try_assign(spec, switch, placement, ledgers):
                    placement.feasible = False
                    placement.infeasibility_reasons.append(
                        f"support module {spec.qualified_name} does not "
                        f"fit on {switch}")

    @staticmethod
    def _finalize_metrics(placement: Placement,
                          detector_switches: List[str],
                          switch_paths: Dict[str, Set[int]],
                          paths: Sequence[Path],
                          ledgers: Dict[str, ResourceLedger],
                          topo: Topology) -> None:
        placement.metrics.detector_switch_count = len(detector_switches)
        # Coverage is per detection module: every module must see every
        # path; the metric reports the worst module's coverage.
        coverages = []
        detection_specs = {}
        for switch, assigned in placement.assignments.items():
            for spec in assigned:
                if spec.role == PpmRole.DETECTION:
                    detection_specs.setdefault(spec.qualified_name,
                                               set()).add(switch)
        for hosts in detection_specs.values():
            covered: Set[int] = set()
            for switch in hosts:
                covered |= switch_paths.get(switch, set())
            coverages.append(len(covered) / len(paths) if paths else 1.0)
        placement.metrics.path_coverage = min(coverages) if coverages else (
            1.0 if paths else 1.0)
        for name in topo.switch_names:
            placement.metrics.switch_utilization[name] = \
                ledgers[name].utilization()
