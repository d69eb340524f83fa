#!/usr/bin/env python
"""Dynamic scaling: repurposing a switch at runtime (§3.4, Figure 1d).

A heavy-hitter detector on switch s1 runs hot; the operator repurposes
s1 to run a different program mix, shipping its detector state to s2
as FEC-protected state-carrying packets.  The sequence is the paper's:
neighbors are notified (fast reroute arms), the switch goes dark for the
Tofino-style reinstallation window, traffic flows around it, and the
state survives the move.  The same flow is then shown hitless
(Trident-style).

Run:  python examples/switch_repurposing.py
"""

from repro.boosters import HeavyHitterBooster
from repro.core import ScalingManager, StateTransferService
from repro.netsim import (Packet, Simulator, figure2_topology,
                          install_fast_reroute_alternates,
                          install_host_routes, install_switch_routes)


# Scheduled callbacks are module-level functions, not closures, so the
# event heap stays picklable for checkpoints.
def probe(topo, probes):
    """Send one probe packet across s1."""
    pkt = Packet(src="client0", dst="victim", size_bytes=200)
    topo.host("client0").originate(pkt)
    probes.append(pkt)


def report_mid_window(topo):
    print(f"t={topo.sim.now:.2f}s  mid-window: s1 reconfiguring="
          f"{topo.switch('s1').reconfiguring}, sL avoids "
          f"{sorted(topo.switch('sL').avoid_neighbors)}")


def main() -> None:
    sim = Simulator(seed=6)
    net = figure2_topology(sim)
    topo = net.topo
    install_host_routes(topo)
    install_switch_routes(topo)
    install_fast_reroute_alternates(topo)
    # Pin the demo traffic through s1 so the repurposing is on-path.
    topo.switch("sL").flow_routes[("client0", "victim")] = "s1"

    # A loaded booster instance on s1.
    booster = HeavyHitterBooster()
    detector = booster._make_detector(topo.switch("s1"))
    topo.switch("s1").install_program(detector)
    for index in range(2000):
        detector.pipe.update(f"src{index % 40}", 1500)
    top = detector.pipe.top_k(3)
    print(f"s1 heavy-hitter state before repurposing: top3 = {top}")

    service = StateTransferService(topo, group_size=4)
    service.install_agents()
    manager = ScalingManager(topo, service, reconfig_seconds=2.0)

    # Probe traffic across s1 throughout.
    probes = []
    probe_proc = sim.every(0.1, probe, topo, probes, start=0.5)

    record = manager.repurpose(
        "s1",
        remove=[detector.name],
        install=[lambda: booster._make_detector(topo.switch("s1"))],
        transfer_state_to="s2",
        on_complete=lambda rec: print(
            f"t={sim.now:.2f}s  repurposing complete "
            f"(downtime {rec.downtime_s:.1f}s, installed "
            f"{rec.installed})"))
    print(f"t={record.started_at:.2f}s  repurposing s1 "
          f"(notify neighbors -> transfer state -> "
          f"{record.downtime_s:.1f}s dark window)")

    sim.schedule(1.2, report_mid_window, topo)
    sim.run(until=5.0)
    probe_proc.stop()

    delivered = topo.host("victim").received_count()
    lost = sum(1 for p in probes if p.dropped)
    print(f"\nprobe traffic during the operation: {delivered}/"
          f"{len(probes)} delivered, {lost} lost "
          f"(fast reroute around the dark switch)")
    print(f"state transfer: id={record.state_transfer_id}, "
          f"arrived intact: {record.state_transfer_ok}")
    stored = topo.switch("s2").scratch.get("replica_store")
    transfer = next((r for r in service.results
                     if r.transfer_id == record.state_transfer_id), None)
    if transfer is not None and transfer.success:
        fresh = booster._make_detector(topo.switch("s4"))
        fresh.import_state(transfer.payload[detector.name])
        print(f"restored state elsewhere: top3 = {fresh.pipe.top_k(3)}")
    del stored

    # The Trident-style alternative: no dark window at all.
    before = topo.host("victim").received_count()
    probes.clear()
    probe_proc = sim.every(0.1, probe, topo, probes, start=0.1)
    manager.repurpose("s2", hitless=True)
    sim.run(until=sim.now + 2.0)
    probe_proc.stop()
    print(f"\nhitless variant on s2: "
          f"{topo.host('victim').received_count() - before}/"
          f"{len(probes)} probes delivered with zero downtime")


if __name__ == "__main__":
    main()
