"""Ablation — mode-flapping under pulsing attacks, guard on vs. off (§6).

A pulsing attacker ([1, 54]) turns its flood on and off to make the
multimode data plane thrash: every burst triggers mitigation, every gap
triggers the return to default.  The stability guard's dwell/rate-limit/
cool-down machinery caps that thrash.  The bench counts mode transitions
over a fixed pulse train with and without the guard.
"""


from repro.attacks import PulsingAttacker
from repro.boosters import LfaDetectorBooster, build_figure2_defense
from repro.core import StabilityGuard
from repro.netsim import (FlowSet, FluidNetwork, GBPS, Simulator,
                          figure2_topology, install_flow_route, make_flow)

DURATION_S = 40.0


def run_pulsing(guard_factory, seed=31):
    sim = Simulator(seed=seed)
    net = figure2_topology(sim, critical_capacity=10 * GBPS,
                           detour_capacity=2 * GBPS)
    flows = FlowSet()
    for index, client in enumerate(net.client_hosts):
        flows.add(make_flow(client, net.victim, 1.5 * GBPS,
                            sport=8800 + index))
    fluid = FluidNetwork(net.topo, flows)
    detector = LfaDetectorBooster(fluid=fluid, clear_sustain_s=0.3,
                                  persist_s=0.2)
    defense = build_figure2_defense(
        net, fluid, detector=detector,
        stability_guard_factory=guard_factory)
    deployment = defense.setup(flows)
    for flow in flows:
        install_flow_route(net.topo, flow.path)
    fluid.start()

    attacker = PulsingAttacker(
        net.topo, fluid, bots=net.bot_hosts, decoys=net.decoy_servers,
        on_duration_s=1.0, off_duration_s=2.0,
        connections_per_bot=200, per_connection_bps=10e6)
    attacker.start(delay_s=2.0)
    sim.run(until=DURATION_S)

    transitions = len([e for e in deployment.bus.events
                       if e.switch == "sL"])
    agents = deployment.mode_agents.values()
    return {
        "transitions_per_switch": transitions,
        "pulses": attacker.pulses,
        "locks": sum(a.guard.stats.locks_triggered for a in agents
                     if a.guard is not None),
        "suppressed": sum(a.changes_suppressed for a in agents),
    }


def test_unguarded_data_plane_flaps():
    result = run_pulsing(lambda _name: None)
    # Every pulse cycle costs the network a mode round trip.
    assert result["transitions_per_switch"] >= 6
    print()
    print(f"no guard: {result['transitions_per_switch']} transitions "
          f"over {result['pulses']} pulses")


def test_guard_caps_flapping():
    guarded = run_pulsing(lambda _name: StabilityGuard(
        min_dwell_s=0.5, max_changes=3, window_s=10.0, cooldown_s=15.0))
    unguarded = run_pulsing(lambda _name: None)
    assert guarded["transitions_per_switch"] < \
        unguarded["transitions_per_switch"]
    assert guarded["locks"] >= 1
    print()
    print(f"guard on: {guarded['transitions_per_switch']} transitions "
          f"(locks: {guarded['locks']}) vs "
          f"{unguarded['transitions_per_switch']} without")
