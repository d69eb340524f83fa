"""Ablation — incremental deployment: FastFlex among legacy switches.

§2: programmable elements enter/exit defense modes while legacy elements
stay in the default mode.  This sweep converts a growing fraction of an
Abilene-like WAN to legacy fixed-function switches and measures what
survives: mode-change propagation (probes tunnel through legacy hops)
and detector path coverage (paths crossing only legacy switches cannot
be watched).
"""


from repro.core import (ModeEventBus, ModeRegistry, ModeSpec,
                        ProgramAnalyzer, Scheduler, greedy_min_max_te,
                        install_mode_agents)
from repro.netsim import (GBPS, Simulator, Topology, install_host_routes,
                          install_switch_routes, make_flow)

#: Abilene edges, duplicated here so the bench can rebuild the topology
#: with selected switches downgraded to legacy.
from repro.netsim.topology import _ABILENE_EDGES


def build_wan(sim, legacy: set):
    topo = Topology(sim, name="abilene_partial")
    cities = sorted({c for edge in _ABILENE_EDGES for c in edge})
    for city in cities:
        topo.add_switch(f"sw_{city}",
                        programmable=f"sw_{city}" not in legacy)
    for a, b in _ABILENE_EDGES:
        topo.add_duplex_link(f"sw_{a}", f"sw_{b}", 10 * GBPS, 0.005)
    for city in cities:
        topo.attach_host(f"{city}0", f"sw_{city}")
    install_host_routes(topo)
    install_switch_routes(topo)
    return topo


def pick_legacy(fraction, seed=5):
    import random
    cities = sorted({c for edge in _ABILENE_EDGES for c in edge})
    rng = random.Random(seed)
    count = int(len(cities) * fraction)
    return {f"sw_{c}" for c in rng.sample(cities, count)}


def propagation_case(legacy_fraction):
    sim = Simulator(seed=2)
    legacy = pick_legacy(legacy_fraction)
    # Keep the initiator programmable.
    legacy.discard("sw_seattle")
    topo = build_wan(sim, legacy)
    registry = ModeRegistry()
    registry.register(ModeSpec.of("mitigate", "lfa", ()))
    bus = ModeEventBus()
    agents = install_mode_agents(topo, registry, bus=bus)
    start = 1.0
    sim.schedule(start, agents["sw_seattle"].initiate, "lfa", "mitigate")
    sim.run(until=3.0)
    activated = {e.switch for e in bus.events if e.new_mode == "mitigate"}
    reached_all = activated == set(topo.programmable_switch_names)
    latency = (max(e.time for e in bus.events) - start
               if bus.events else None)
    return reached_all, latency, len(agents)


def coverage_case(legacy_fraction):
    from tests.core.test_scheduler import tiny_booster
    sim = Simulator(seed=2)
    topo = build_wan(sim, pick_legacy(legacy_fraction))
    hosts = topo.host_names
    flows = [make_flow(hosts[i], hosts[(i + 4) % len(hosts)], GBPS,
                       sport=i) for i in range(8)
             if hosts[i] != hosts[(i + 4) % len(hosts)]]
    te = greedy_min_max_te(topo, flows)
    merged = ProgramAnalyzer().merge([tiny_booster()])
    placement = Scheduler().place(
        merged, topo, [te.paths[f.flow_id] for f in flows])
    return placement.metrics.path_coverage


def test_mode_probes_tunnel_through_legacy():
    def sweep():
        return {fraction: propagation_case(fraction)
                for fraction in (0.0, 0.3, 0.5)}

    results = sweep()
    print()
    print(f"{'legacy':>8}{'agents':>8}{'reached':>9}{'latency ms':>12}")
    for fraction, (reached, latency, n_agents) in sorted(results.items()):
        print(f"{fraction:>8.0%}{n_agents:>8}{str(reached):>9}"
              f"{latency * 1e3:>12.1f}")
        # Every programmable switch still hears the mode change, at
        # millisecond timescale, regardless of legacy hops in between.
        assert reached
        assert latency < 0.1


def test_detector_coverage_degrades_gracefully():
    def sweep():
        return {fraction: coverage_case(fraction)
                for fraction in (0.0, 0.3, 0.6)}

    coverages = sweep()
    print()
    for fraction, coverage in sorted(coverages.items()):
        print(f"legacy {fraction:.0%}: detector path coverage "
              f"{coverage:.0%}")
    assert coverages[0.0] == 1.0
    # Coverage is monotone non-increasing in the legacy fraction.
    ordered = [coverages[f] for f in sorted(coverages)]
    assert ordered == sorted(ordered, reverse=True)
