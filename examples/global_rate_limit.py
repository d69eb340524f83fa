#!/usr/bin/env python
"""Distributed detection: a global rate limit no single switch can see.

§3.3's second detection class: "other problems, such as network-wide
heavy hitters or global rate limits, may require a network-wide
detection."  A tenant sends through two different ingress switches, each
below the limit locally; only the synchronized global view exceeds it.
The rate-limiter booster's sync agents exchange digests and enforcement
kicks in network-wide.

Run:  python examples/global_rate_limit.py
"""

from repro.boosters import GlobalRateLimiterBooster, TENANT_HEADER
from repro.core import FastFlexController
from repro.netsim import (FlowSet, Packet, Simulator, figure2_topology,
                          install_fast_reroute_alternates,
                          install_host_routes, install_switch_routes)

LIMIT_BPS = 2e6


def pump(topo, sent, host, dst, bucket, count):
    """Originate ``count`` tenantA packets from ``host`` (a module-level
    function, so the event heap stays picklable for checkpoints)."""
    for index in range(count):
        pkt = Packet(src=host, dst=dst, size_bytes=1500,
                     sport=5000 + index,
                     headers={TENANT_HEADER: "tenantA"})
        topo.host(host).originate(pkt)
        sent[bucket].append(pkt)


def main() -> None:
    sim = Simulator(seed=4)
    net = figure2_topology(sim)
    topo = net.topo
    install_host_routes(topo)
    install_switch_routes(topo)
    install_fast_reroute_alternates(topo)

    booster = GlobalRateLimiterBooster(limits={"tenantA": LIMIT_BPS},
                                       window_s=1.0, sync_period_s=0.1)
    controller = FastFlexController(topo, [booster])
    controller.setup(FlowSet(), install_routes=False)
    print(f"rate limiter on {sorted(booster.programs)} with sync agents; "
          f"tenantA limit {LIMIT_BPS / 1e6:.0f} Mbps")

    sent = {"west": [], "east": []}

    # Phase 1: one ingress alone, under the global limit.
    sim.schedule(0.5, pump, topo, sent, "client0", "victim", "west", 100)
    sim.run(until=1.0)
    west_rate = booster.programs["sL"].local_rates()["tenantA"]
    dropped = sum(1 for p in sent["west"] if p.dropped)
    print(f"\nphase 1 — single ingress: local rate "
          f"{west_rate / 1e6:.2f} Mbps, dropped {dropped}/100 "
          f"(limit not exceeded globally)")

    # Phase 2: a second ingress joins; each is below the limit locally,
    # together they exceed it.
    sim.schedule(0.1, pump, topo, sent, "victim", "client0", "east", 100)
    sim.schedule(0.4, pump, topo, sent, "client0", "victim", "west", 100)
    sim.run(until=2.0)
    program = booster.programs["sL"]
    local = program.local_rates().get("tenantA", 0.0)
    global_rate = program.global_rate("tenantA")
    dropped_late = sum(1 for p in sent["west"][100:] if p.dropped)
    print(f"\nphase 2 — two ingresses: sL local "
          f"{local / 1e6:.2f} Mbps, global view "
          f"{global_rate / 1e6:.2f} Mbps "
          f"(> limit: {global_rate > LIMIT_BPS})")
    print(f"enforcement: {dropped_late}/100 of the second wave dropped "
          f"proportionally at sL")
    total_sync_bytes = sum(a.stats.bytes_sent
                           for a in booster.sync_agents.values())
    print(f"synchronization overhead so far: {total_sync_bytes} bytes "
          f"of digests")


if __name__ == "__main__":
    main()
