"""The Figure 1 pipeline, operationally: merge, place, scale.

Figure 1 is the paper's architecture figure; this driver exercises each
of its stages on the real booster suite and reports the numbers the
figure depicts symbolically: the per-module resource table (stages /
SRAM / TCAM), the sharing savings from the joint analysis (a->b), the
placement quality on a network (c), and a dynamic scale-out of a booster
instance at runtime (d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..boosters.heavy_hitter import HeavyHitterBooster
from ..boosters.hop_count import HopCountFilterBooster
from ..boosters.lfa_detector import LfaDetectorBooster
from ..boosters.netwarden import NetWardenBooster
from ..boosters.obfuscation import TopologyObfuscationBooster
from ..boosters.packet_dropper import PacketDropperBooster
from ..boosters.poise import PoiseBooster
from ..boosters.rate_limiter import GlobalRateLimiterBooster
from ..boosters.reroute import CongestionRerouteBooster
from ..core.analyzer import MergedGraph, ProgramAnalyzer
from ..core.booster import Booster
from ..core.scheduler import Placement, Scheduler
from ..core.te import greedy_min_max_te
from ..dataplane.resources import ResourceVector
from ..netsim.engine import Simulator
from ..netsim.flows import FlowSet, make_flow
from ..netsim.topology import GBPS, abilene_like, figure2_topology


def booster_suite() -> List[Booster]:
    """The full booster catalog used by the Figure 1 benchmarks."""
    return [
        LfaDetectorBooster(),
        CongestionRerouteBooster(),
        PacketDropperBooster(),
        TopologyObfuscationBooster(),
        HeavyHitterBooster(),
        HopCountFilterBooster(),
        GlobalRateLimiterBooster(limits={"tenant0": 1e9}),
        NetWardenBooster(),
        PoiseBooster(),
    ]


@dataclass
class MergeSummary:
    """Figure 1a-b numbers."""

    ppms_before: int
    ppms_after: int
    shared_groups: int
    requirement_before: ResourceVector
    requirement_after: ResourceVector
    module_table: List[Tuple[str, float, float, float]]

    @property
    def stage_savings_fraction(self) -> float:
        before = self.requirement_before.stages
        if before <= 0:
            return 0.0
        return 1.0 - self.requirement_after.stages / before

    @property
    def sram_savings_fraction(self) -> float:
        before = self.requirement_before.sram_mb
        if before <= 0:
            return 0.0
        return 1.0 - self.requirement_after.sram_mb / before


def run_merge(boosters: Optional[List[Booster]] = None,
              merge_all_parsers: bool = True) -> Tuple[MergedGraph,
                                                       MergeSummary]:
    """Figure 1a-b: booster dataflow graphs -> merged graph."""
    boosters = boosters if boosters is not None else booster_suite()
    analyzer = ProgramAnalyzer(merge_all_parsers=merge_all_parsers)
    merged = analyzer.merge([b.dataflow() for b in boosters])
    report = merged.report
    summary = MergeSummary(
        ppms_before=report.total_ppms_before,
        ppms_after=report.total_ppms_after,
        shared_groups=report.shared_groups,
        requirement_before=report.requirement_before,
        requirement_after=report.requirement_after,
        module_table=report.module_table(merged))
    return merged, summary


@dataclass
class PlacementSummary:
    """Figure 1c numbers."""

    placement: Placement
    te_max_utilization: float
    detector_switches: int
    path_coverage: float
    feasible: bool


def run_placement(topology: str = "figure2",
                  pervasive: bool = True,
                  boosters: Optional[List[Booster]] = None
                  ) -> PlacementSummary:
    """Figure 1c: map the merged graph onto a network under a TM."""
    sim = Simulator(seed=11)
    if topology == "figure2":
        net = figure2_topology(sim)
        topo = net.topo
        flows = FlowSet()
        for index, client in enumerate(net.client_hosts):
            flows.add(make_flow(client, net.victim, 1.5 * GBPS,
                                sport=20000 + index))
    elif topology == "abilene":
        topo = abilene_like(sim)
        hosts = topo.host_names
        flows = FlowSet()
        for index, src in enumerate(hosts):
            dst = hosts[(index + 3) % len(hosts)]
            if src != dst:
                flows.add(make_flow(src, dst, 0.5 * GBPS,
                                    sport=21000 + index))
    else:
        raise ValueError(f"unknown topology {topology!r}")

    te = greedy_min_max_te(topo, list(flows))
    merged, _ = run_merge(boosters)
    scheduler = Scheduler(pervasive_detection=pervasive)
    paths = [te.paths[fid] for fid in sorted(te.paths)]
    placement = scheduler.place(merged, topo, paths)
    return PlacementSummary(
        placement=placement,
        te_max_utilization=te.max_utilization,
        detector_switches=placement.metrics.detector_switch_count,
        path_coverage=placement.metrics.path_coverage,
        feasible=placement.feasible)


@dataclass
class ScalingSummary:
    """Figure 1d numbers."""

    instances_before: int
    instances_after: int
    state_seeded: bool
    seed_latency_s: float


def run_scaling_demo() -> ScalingSummary:
    """Figure 1d: replicate a loaded booster instance at runtime."""
    from ..core.scaling import ScalingManager
    from ..core.state_transfer import StateTransferService
    from ..netsim.routing import (install_host_routes,
                                  install_switch_routes)

    sim = Simulator(seed=13)
    net = figure2_topology(sim)
    topo = net.topo
    install_host_routes(topo)
    install_switch_routes(topo)

    booster = HeavyHitterBooster()
    source = topo.switch("s1")
    program = booster._make_detector(source)
    source.install_program(program)
    # Load it with traffic so there is state worth moving.
    for index in range(500):
        program.pipe.update(f"host{index % 20}", 1000 + index)

    service = StateTransferService(topo)
    service.install_agents()
    manager = ScalingManager(topo, service)

    outcome = {"ok": None, "at": None}

    def on_ready(ok: bool) -> None:
        outcome["ok"] = ok
        outcome["at"] = sim.now

    before = len(manager.instances_of(program.name))
    started = sim.now
    manager.scale_out(program.name, "s1", "s2",
                      factory=lambda: booster._make_detector(
                          topo.switch("s2")),
                      on_ready=on_ready)
    sim.run(until=started + 2.0)
    after = len(manager.instances_of(program.name))
    return ScalingSummary(
        instances_before=before, instances_after=after,
        state_seeded=bool(outcome["ok"]),
        seed_latency_s=(outcome["at"] - started
                        if outcome["at"] is not None else float("inf")))


def format_report() -> str:  # pragma: no cover - CLI helper
    merged, summary = run_merge()
    lines = ["Figure 1a-b — joint analysis and module sharing", ""]
    lines.append(f"{'module':<34}{'stages':>7}{'SRAM MB':>9}{'TCAM KB':>9}")
    for name, stages, sram, tcam in summary.module_table:
        lines.append(f"{name:<34}{stages:>7.0f}{sram:>9.2f}{tcam:>9.0f}")
    lines.append("")
    lines.append(f"PPMs: {summary.ppms_before} -> {summary.ppms_after} "
                 f"({summary.shared_groups} shared groups)")
    lines.append(f"stage savings: {summary.stage_savings_fraction:.1%}; "
                 f"SRAM savings: {summary.sram_savings_fraction:.1%}")
    place = run_placement()
    lines.append("")
    lines.append("Figure 1c — placement on the Figure 2 network")
    lines.append(f"detectors on {place.detector_switches} switches, "
                 f"path coverage {place.path_coverage:.0%}, "
                 f"TE max link utilization {place.te_max_utilization:.2f}, "
                 f"feasible={place.feasible}")
    scale = run_scaling_demo()
    lines.append("")
    lines.append("Figure 1d — dynamic scale-out of a booster")
    lines.append(f"instances {scale.instances_before} -> "
                 f"{scale.instances_after}, state seeded: "
                 f"{scale.state_seeded} in {scale.seed_latency_s * 1e3:.1f} ms")
    return "\n".join(lines)
