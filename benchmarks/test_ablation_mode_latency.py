"""Ablation — mode-change latency: data plane vs. control plane.

Section 2.1's "per-packet dynamicity" claim: responding in the data
plane avoids the round trip to a software controller, and responding
with distributed probes avoids the minutes-scale TE loop entirely.  This
bench measures the in-data-plane propagation latency on two topologies
and contrasts it with the controller-loop and TE-period alternatives.
"""

import pytest

from repro.core import ModeEventBus, ModeRegistry, ModeSpec, \
    install_mode_agents
from repro.netsim import Simulator, abilene_like, fat_tree, figure2_topology

#: A software controller's reaction: detection report + rule pushes, at
#: least one network RTT plus processing ([43]-style SDN defenses).
CONTROLLER_LOOP_S = 0.25
#: Centralized TE reconfiguration period (Figure 3 baseline).
TE_PERIOD_S = 30.0


def propagation_latency(build_topo, initiator):
    """Time for a mode change to reach every switch, fully in data plane."""
    sim = Simulator(seed=3)
    topo = build_topo(sim)
    registry = ModeRegistry()
    registry.register(ModeSpec.of("mitigate", "lfa", ()))
    bus = ModeEventBus()
    agents = install_mode_agents(topo, registry, bus=bus)
    start = 1.0
    sim.schedule(start, agents[initiator].initiate, "lfa", "mitigate")
    sim.run(until=5.0)
    activated = {e.switch for e in bus.events if e.new_mode == "mitigate"}
    assert activated == set(topo.switch_names)
    return max(e.time for e in bus.events) - start


CASES = {
    "figure2": (lambda sim: figure2_topology(sim).topo, "s1"),
    "abilene": (abilene_like, "sw_seattle"),
    "fattree4": (lambda sim: fat_tree(sim, k=4), "edge0_0"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_data_plane_mode_change_beats_controller(name):
    build, initiator = CASES[name]
    latency = propagation_latency(build, initiator)
    # RTT-timescale: orders of magnitude under the software loop.
    assert latency < CONTROLLER_LOOP_S / 5
    assert latency < TE_PERIOD_S / 1000
    print()
    print(f"{name}: data-plane mode change {latency * 1e3:.2f} ms vs "
          f"controller loop {CONTROLLER_LOOP_S * 1e3:.0f} ms vs TE period "
          f"{TE_PERIOD_S:.0f} s "
          f"({CONTROLLER_LOOP_S / latency:.0f}x / "
          f"{TE_PERIOD_S / latency:.0f}x faster)")
