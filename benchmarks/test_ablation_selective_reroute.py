"""Ablation — selective rerouting: pin normal flows or move everything.

Step (3) of the FastFlex defense reroutes *only suspicious* flows and
pins normal flows to their TE-optimal paths, because detour paths trade
queueing delay for propagation delay (§4.2).  This bench runs the attack
scenario both ways and reports what pinning buys: normal flows keep
their short paths (no latency stretch) with the same throughput
protection.
"""


from repro.boosters import CongestionRerouteBooster, PacketDropperBooster
from repro.boosters.lfa_defense import build_figure2_defense
from repro.experiments.figure3 import Figure3Config, _build_network, \
    _launch_attacker
from repro.netsim import Monitor, install_flow_route

CONFIG = Figure3Config(duration_s=30.0)


def run_variant(pin_normal):
    """Rerouting-only defense (no policing), pinning on or off.

    Isolating the reroute booster keeps the flood alive, which is when
    the pin-normal decision matters: the steering happens while the
    network is genuinely congested.
    """
    sim, net, fluid, flows = _build_network(CONFIG)
    reroute = CongestionRerouteBooster(pin_normal=pin_normal)
    # A dropper that never fires: suspicion scores stay below 2.0.
    inert_dropper = PacketDropperBooster(drop_score_threshold=2.0)
    defense = build_figure2_defense(net, fluid, reroute=reroute,
                                    dropper=inert_dropper)
    deployment = defense.setup(flows)
    te_latency = {f.flow_id: f.path.latency(net.topo) for f in flows}
    for flow in flows:
        install_flow_route(net.topo, flow.path)
    fluid.start()
    monitor = Monitor(fluid, period=CONFIG.sample_period_s)
    series = monitor.watch_normal_goodput(CONFIG.normal_demand_total)
    monitor.start()
    _launch_attacker(net, fluid, CONFIG)
    sim.run(until=CONFIG.duration_s)

    stretched = 0
    for flow in flows.normal():
        if flow.path.latency(net.topo) > te_latency[flow.flow_id] + 1e-9:
            stretched += 1
    mean_throughput = series.mean_over(CONFIG.attack_start_s + 2.0,
                                       CONFIG.duration_s)
    return {
        "mean_throughput": mean_throughput,
        "normal_flows_stretched": stretched,
        "normal_total": len(flows.normal()),
        "reroutes": defense.reroute.reroutes_applied,
    }


def test_pinning_protects_normal_paths():
    pinned = run_variant(True)
    assert pinned["mean_throughput"] > 0.9
    assert pinned["normal_flows_stretched"] == 0, (
        "pinned normal flows must keep their TE paths")


def test_reroute_everything_disturbs_normal_flows():
    naive = run_variant(False)
    pinned = run_variant(True)
    # The naive variant drags normal flows onto whatever path the
    # distance-vector currently likes — alongside the (unmitigated)
    # attack — so they inherit both the longer paths and the congestion.
    # That is exactly why §4.2 step (3) pins normal flows.
    assert naive["normal_flows_stretched"] >= 1
    assert pinned["normal_flows_stretched"] == 0
    assert pinned["mean_throughput"] > naive["mean_throughput"] + 0.3
    print()
    print(f"pin-normal: {pinned['normal_flows_stretched']}/"
          f"{pinned['normal_total']} normal flows stretched, mean "
          f"throughput {pinned['mean_throughput']:.1%}")
    print(f"reroute-all: {naive['normal_flows_stretched']}/"
          f"{naive['normal_total']} normal flows stretched, mean "
          f"throughput {naive['mean_throughput']:.1%}")
