"""The Figure 2 abstraction, operationally: the multimode data plane.

Figure 2's four panels are a *sequence of mode states*; this driver runs
the scripted scenario and records each transition so benchmarks and
tests can assert on it:

  (a) default mode — every defense booster off, detectors on;
  (b) detection — mode-change probes propagate switch to switch;
  (c) mitigation — suspicious flows rerouted and policed, normal flows
      pinned, traceroutes obfuscated;
  (d) robustness — the rolling attacker never observes a route change.

A second driver exercises the caption's mixed-vector claim: co-existing
modes for different attack types, confined to different regions via the
probes' hop-scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Set

from ..attacks.rolling import RollingAttacker
from ..boosters.lfa_defense import build_figure2_defense
from ..boosters.lfa_detector import ATTACK_TYPE, MITIGATION_MODE
from ..core.controller import Deployment
from ..core.modes import ModeEventBus, ModeRegistry, ModeSpec
from ..core.mode_protocol import install_mode_agents
from ..netsim.engine import Simulator
from ..netsim.flows import FlowSet, make_flow
from ..netsim.routing import (install_flow_route, install_host_routes,
                              install_switch_routes)
from ..netsim.fluid import FluidNetwork
from ..netsim.topology import GBPS, abilene_like, figure2_topology

#: The scripted sequence's seed and attack start.
SEQUENCE_SEED = 21
ATTACK_START_S = 5.0


@dataclass
class ModeSequenceResult:
    """Everything the Figure 2 sequence produced."""

    #: (a) booster gating observed in the default mode, per switch.
    default_mode_boosters: Dict[str, Dict[str, bool]] = field(
        default_factory=dict)
    #: (b) time each switch entered the mitigation mode.
    activation_times: Dict[str, float] = field(default_factory=dict)
    detection_time: Optional[float] = None
    propagation_delay_s: Optional[float] = None
    #: (c) per-flow path behaviour during mitigation.
    suspicious_rerouted: int = 0
    suspicious_total: int = 0
    normal_pinned: int = 0
    normal_total: int = 0
    forged_traceroute_replies: int = 0
    policed_flows: int = 0
    #: (d) attacker outcome.
    attacker_rolls: int = 0
    attacker_perceived_success: bool = False
    #: Final mode per switch at the end of the run.
    final_modes: Dict[str, str] = field(default_factory=dict)


def _sample_default(deployment: Deployment,
                    result: ModeSequenceResult) -> None:
    for name, agent in deployment.mode_agents.items():
        table = agent.mode_table
        result.default_mode_boosters[name] = {
            "lfa_detector": table.booster_enabled("lfa_detector"),
            "reroute": table.booster_enabled("reroute"),
            "dropper": table.booster_enabled("dropper"),
            "obfuscation": table.booster_enabled("obfuscation"),
        }


def _snapshot_normal_paths(flows: FlowSet,
                           paths: Dict[int, tuple]) -> None:
    for flow in flows.normal():
        if flow.path is not None:
            paths[flow.flow_id] = flow.path.nodes


def run_mode_sequence(duration_s: float = 30.0) -> ModeSequenceResult:
    """Run the scripted Figure 2 scenario and collect the transitions."""
    sim = Simulator(seed=SEQUENCE_SEED)
    net = figure2_topology(sim, critical_capacity=10 * GBPS,
                           detour_capacity=2 * GBPS)
    flows = FlowSet()
    for index, client in enumerate(net.client_hosts):
        flows.add(make_flow(client, net.victim, 1.5 * GBPS,
                            sport=30000 + index))
    fluid = FluidNetwork(net.topo, flows)
    defense = build_figure2_defense(net, fluid)
    deployment = defense.setup(flows)
    for flow in flows:
        install_flow_route(net.topo, flow.path)
    fluid.start()

    result = ModeSequenceResult()
    # (a) the default mode: sample booster gating before any attack.
    sim.schedule(ATTACK_START_S - 2.0,
                 partial(_sample_default, deployment, result))
    normal_paths_at_attack: Dict[int, tuple] = {}
    sim.schedule(ATTACK_START_S - 0.5,
                 partial(_snapshot_normal_paths, flows,
                         normal_paths_at_attack))

    attacker = RollingAttacker(
        net.topo, fluid, bots=net.bot_hosts, decoys=net.decoy_servers,
        victim=net.victim, connections_per_bot=200,
        per_connection_bps=10e6)
    attacker.map_then_attack(start_delay=ATTACK_START_S - 1.0)

    sim.run(until=duration_s)

    # (b) propagation.
    for event in deployment.bus.events:
        if (event.attack_type == ATTACK_TYPE
                and event.new_mode == MITIGATION_MODE
                and event.switch not in result.activation_times):
            result.activation_times[event.switch] = event.time
    if defense.detector.detections:
        result.detection_time = defense.detector.detections[0].time
    if result.activation_times and result.detection_time is not None:
        result.propagation_delay_s = (max(result.activation_times.values())
                                      - result.detection_time)

    # (c) selective rerouting and the other mitigation actions.
    for flow in flows:
        if flow.malicious:
            continue
        result.normal_total += 1
        original = normal_paths_at_attack.get(flow.flow_id)
        if original is not None and flow.path is not None \
                and flow.path.nodes == original:
            result.normal_pinned += 1
    for flow in attacker.flows:
        result.suspicious_total += 1
        pinned_by_attacker = attacker.target_hops or []
        actual_switches = [n for n in (flow.path.nodes if flow.path else ())
                           if n in net.topo.switch_names]
        if actual_switches != pinned_by_attacker:
            result.suspicious_rerouted += 1
    result.forged_traceroute_replies = sum(
        p.replies_forged for p in defense.obfuscation.programs.values())
    result.policed_flows = defense.dropper.flows_policed

    # (d) the rolling attacker's view.
    result.attacker_rolls = attacker.roll_count
    result.attacker_perceived_success = attacker.perceived_success
    for name, agent in deployment.mode_agents.items():
        result.final_modes[name] = agent.mode_table.mode_for(ATTACK_TYPE)
    return result


@dataclass
class MixedVectorResult:
    """Co-existing region-scoped modes (the Figure 2 caption claim)."""

    lfa_region: Set[str] = field(default_factory=set)
    ddos_region: Set[str] = field(default_factory=set)
    overlap: Set[str] = field(default_factory=set)
    untouched: Set[str] = field(default_factory=set)


def run_mixed_vector(seed: int = 23) -> MixedVectorResult:
    """Activate two attack-type modes with different hop scopes on a WAN
    and report which switches ended up in which region."""
    sim = Simulator(seed=seed)
    topo = abilene_like(sim)
    install_host_routes(topo)
    install_switch_routes(topo)

    registry = ModeRegistry()
    registry.register(ModeSpec.of(MITIGATION_MODE, ATTACK_TYPE,
                                  boosters_on=("reroute",)))
    registry.register(ModeSpec.of("ddos_filter", "ddos",
                                  boosters_on=("heavy_hitter.filter",)))
    bus = ModeEventBus()
    agents = install_mode_agents(topo, registry, bus=bus)

    # An LFA response around Seattle (radius 1), a volumetric response
    # around Washington (radius 1) — opposite coasts.
    sim.schedule(1.0, agents["sw_seattle"].initiate,
                 ATTACK_TYPE, MITIGATION_MODE, 2)
    sim.schedule(1.0, agents["sw_washington"].initiate,
                 "ddos", "ddos_filter", 2)
    sim.run(until=3.0)

    result = MixedVectorResult()
    for name, agent in agents.items():
        table = agent.mode_table
        in_lfa = table.mode_for(ATTACK_TYPE) == MITIGATION_MODE
        in_ddos = table.mode_for("ddos") == "ddos_filter"
        if in_lfa:
            result.lfa_region.add(name)
        if in_ddos:
            result.ddos_region.add(name)
        if in_lfa and in_ddos:
            result.overlap.add(name)
        if not in_lfa and not in_ddos:
            result.untouched.add(name)
    return result


def main() -> None:  # pragma: no cover - CLI entry
    result = run_mode_sequence()
    print("Figure 2 — multimode sequence")
    print(f"(a) default mode gating at one switch: "
          f"{result.default_mode_boosters.get('sL')}")
    print(f"(b) detection at t={result.detection_time:.3f}s; mitigation "
          f"reached all {len(result.activation_times)} switches within "
          f"{result.propagation_delay_s * 1e3:.1f} ms")
    print(f"(c) suspicious rerouted {result.suspicious_rerouted}/"
          f"{result.suspicious_total}; normal pinned "
          f"{result.normal_pinned}/{result.normal_total}; forged "
          f"traceroute replies {result.forged_traceroute_replies}; "
          f"policed flows {result.policed_flows}")
    print(f"(d) attacker rolls: {result.attacker_rolls}; perceived "
          f"success: {result.attacker_perceived_success}")
    mixed = run_mixed_vector()
    print("mixed-vector regions:",
          f"lfa={sorted(mixed.lfa_region)}",
          f"ddos={sorted(mixed.ddos_region)}",
          f"untouched={len(mixed.untouched)}")
