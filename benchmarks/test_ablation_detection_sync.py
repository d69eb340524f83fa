"""Ablation — distributed detection: accuracy/latency vs. sync overhead.

§3.3: network-wide attacks (global rate limits [62], network-wide heavy
hitters [34]) need detectors to synchronize views periodically, "while
minimizing the amount of synchronization".  This bench sweeps the sync
period: shorter periods detect a distributed violation faster but cost
more probe bytes; without sync the violation is *never* detected.
"""


from repro.core import DetectorSyncAgent
from repro.netsim import (Simulator, figure2_topology, install_host_routes,
                          install_switch_routes)

LIMIT = 10.0
HORIZON_S = 5.0
#: Deliberately misaligned with every sync period in the sweep, so the
#: violation falls *between* digests (the realistic worst case; aligned
#: starts would make every period look equally fast).
VIOLATION_START_S = 1.013


def run_case(sync_period_s, seed=17):
    """Two detectors each see 60% of the limit from t=1; measure when
    the merged view crosses the limit at the first detector."""
    sim = Simulator(seed=seed)
    net = figure2_topology(sim)
    install_host_routes(net.topo)
    install_switch_routes(net.topo)

    def local_rate():
        return ({"tenant": 0.6 * LIMIT}
                if sim.now >= VIOLATION_START_S else {})

    agents = {}
    for name in ("sL", "sR"):
        agent = DetectorSyncAgent(
            source=local_rate,
            peers=[p for p in ("sL", "sR") if p != name],
            sync_period_s=sync_period_s, name=f"sync.{name}")
        net.topo.switch(name).install_program(agent)
        agents[name] = agent

    detected = {"at": None}

    def poll():
        if detected["at"] is None and \
                agents["sL"].global_exceeders(LIMIT):
            detected["at"] = sim.now

    sim.every(0.01, poll)
    sim.run(until=HORIZON_S)
    overhead = sum(a.stats.bytes_sent for a in agents.values())
    latency = (detected["at"] - VIOLATION_START_S
               if detected["at"] is not None else None)
    return latency, overhead


def test_sync_period_tradeoff():
    def sweep():
        return {period: run_case(period)
                for period in (0.05, 0.1, 0.5, 1.0)}

    results = sweep()
    print()
    print(f"{'sync period':>12}{'detect latency':>16}{'probe bytes':>13}")
    latencies, overheads = [], []
    for period in sorted(results):
        latency, overhead = results[period]
        assert latency is not None, f"no detection at period {period}"
        print(f"{period:>12.2f}{latency:>16.3f}{overhead:>13d}")
        latencies.append(latency)
        overheads.append(overhead)
    # Faster sync: lower latency, higher overhead.
    assert latencies == sorted(latencies)
    assert overheads == sorted(overheads, reverse=True)
    # Even the slowest sync beats a 30 s TE loop by an order of magnitude.
    assert max(latencies) < 3.0


def test_no_sync_never_detects():
    """Local views alone stay below the limit forever — the §3.3
    motivation for cross-detector synchronization."""

    def run_without_sync():
        sim = Simulator(seed=19)
        net = figure2_topology(sim)
        install_host_routes(net.topo)
        install_switch_routes(net.topo)
        agent = DetectorSyncAgent(
            source=lambda: {"tenant": 0.6 * LIMIT}, peers=[],
            sync_period_s=0.1, name="sync.solo")
        net.topo.switch("sL").install_program(agent)
        sim.run(until=HORIZON_S)
        return agent.global_exceeders(LIMIT)

    assert run_without_sync() == {}
