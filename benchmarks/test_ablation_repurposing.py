"""Ablation — repurposing disruption: notify+FRR vs. silent vs. hitless.

§3.4 and footnote 1: Tofino-style reinstallation takes seconds of
downtime, so a switch must tell its neighbors to fast-reroute before it
goes dark; Trident-style partial reconfiguration is hitless.  The bench
streams probes across the repurposed switch during the window and counts
what survives under the three disciplines.
"""


from repro.core import ScalingManager, StateTransferService
from repro.netsim import (Packet, Simulator, figure2_topology,
                          install_fast_reroute_alternates,
                          install_host_routes, install_switch_routes)

RECONFIG_S = 2.0
PROBE_PERIOD_S = 0.05


def run_discipline(discipline, seed=23):
    """Returns (delivered, lost) for probes sent during the window."""
    sim = Simulator(seed=seed)
    net = figure2_topology(sim)
    topo = net.topo
    install_host_routes(topo)
    install_switch_routes(topo)
    install_fast_reroute_alternates(topo)
    # Pin the probed pair through s1, the switch being repurposed.
    topo.switch("sL").flow_routes[("client0", "victim")] = "s1"

    service = StateTransferService(topo)
    service.install_agents()
    manager = ScalingManager(topo, service, reconfig_seconds=RECONFIG_S)

    sent = []

    def probe():
        pkt = Packet(src="client0", dst="victim", size_bytes=200)
        topo.host("client0").originate(pkt)
        sent.append(pkt)

    start = 1.0
    if discipline == "notify_frr":
        sim.schedule(start, manager.repurpose, "s1")
    elif discipline == "silent":
        # No neighbor notification: the switch just goes dark.
        sim.schedule(start, topo.switch("s1").begin_reconfiguration,
                     RECONFIG_S)
    elif discipline == "hitless":
        sim.schedule(start, manager.repurpose, "s1", None, None, None,
                     True)
    else:
        raise ValueError(discipline)

    # Probe only inside the reconfiguration window.
    tick = start + 0.1
    while tick < start + RECONFIG_S - 0.1:
        sim.schedule(tick, probe)
        tick += PROBE_PERIOD_S
    sim.run(until=start + RECONFIG_S + 1.0)

    delivered = topo.host("victim").received_count()
    lost = sum(1 for p in sent if p.dropped is not None)
    return delivered, lost, len(sent)


def test_notify_and_frr_avoid_loss():
    delivered, lost, total = run_discipline("notify_frr")
    assert delivered == total
    assert lost == 0


def test_silent_reconfig_blackholes():
    delivered, lost, total = run_discipline("silent")
    assert lost == total, "a dark switch with no warning drops everything"
    assert delivered == 0


def test_hitless_reconfig_is_transparent():
    delivered, lost, total = run_discipline("hitless")
    assert delivered == total
    assert lost == 0


def test_disruption_comparison():
    rows = {d: run_discipline(d)
            for d in ("notify_frr", "silent", "hitless")}
    print()
    print(f"{'discipline':>12}{'delivered':>11}{'lost':>6}")
    for discipline, (delivered, lost, total) in rows.items():
        print(f"{discipline:>12}{delivered:>11}{lost:>6}")
    assert rows["silent"][1] > rows["notify_frr"][1]
