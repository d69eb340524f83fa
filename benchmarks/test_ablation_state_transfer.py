"""Ablation — state transfer under loss, with and without FEC (§3.4).

State-carrying packets share flooded links with the attack; the paper
prescribes FEC so single losses per group are repaired in the data
plane.  This bench sweeps link overload levels and reports transfer
success rates with FEC on and off, plus the analytic survival model.
"""

import pytest

from repro.core import StateTransferService
from repro.dataplane import loss_survival_probability
from repro.netsim import (Simulator, figure2_topology, install_host_routes,
                          install_switch_routes)

PAYLOAD = {"table": {i: i * 7 for i in range(40)}}
ATTEMPTS = 30


def run_sweep(group_size, overload_factor, seed=11):
    """Success fraction of ``ATTEMPTS`` transfers across a lossy link."""
    sim = Simulator(seed=seed)
    net = figure2_topology(sim)
    install_host_routes(net.topo)
    install_switch_routes(net.topo)
    service = StateTransferService(net.topo, group_size=group_size,
                                   symbols_per_packet=1, deadline_s=0.3)
    service.install_agents()
    link = net.topo.link("sL", "s1")
    link.fluid_load_bps = link.capacity_bps * overload_factor
    results = []
    for index in range(ATTEMPTS):
        sim.schedule(index * 0.5, service.send, "sL", "sR", PAYLOAD,
                     results.append)
    sim.run(until=ATTEMPTS * 0.5 + 2.0)
    assert len(results) == ATTEMPTS
    ok = sum(r.success for r in results)
    recovered = sum(r.recovered_by_fec for r in results)
    return ok / ATTEMPTS, recovered


def test_fec_beats_raw_under_loss():
    def sweep():
        rows = []
        for overload in (1.0, 1.02, 1.05, 1.10):
            with_fec, recovered = run_sweep(4, overload)
            without_fec, _ = run_sweep(None, overload)
            rows.append((overload, with_fec, without_fec, recovered))
        return rows

    rows = sweep()
    print()
    print(f"{'overload':>9}{'FEC ok':>8}{'raw ok':>8}{'repaired words':>16}")
    for overload, with_fec, without_fec, recovered in rows:
        print(f"{overload:>9.2f}{with_fec:>8.1%}{without_fec:>8.1%}"
              f"{recovered:>16d}")
        assert with_fec >= without_fec
    # Lossless: both perfect.
    assert rows[0][1] == 1.0 and rows[0][2] == 1.0
    # Mild loss: FEC keeps transfers alive notably better.
    mild = rows[1]
    assert mild[1] > mild[2]


def test_survival_model_tracks_measurement():
    """The closed-form group-survival model vs. measured transfers."""
    overload = 1.05
    loss = 1.0 - 1.0 / overload

    measured, _ = run_sweep(4, overload)
    # A transfer needs every group to survive; the payload spans ~60
    # words = 15 groups, each crossing one lossy link.
    group_survival = loss_survival_probability(loss, 4)
    predicted = group_survival ** 15
    assert measured == pytest.approx(predicted, abs=0.35)
    print()
    print(f"measured success {measured:.1%} vs model {predicted:.1%} "
          f"at {loss:.1%} symbol loss")


def test_redundancy_overhead_tradeoff():
    """Smaller FEC groups mean more parity overhead but more repair."""
    from repro.dataplane import FecEncoder

    def sweep():
        rows = []
        for group_size in (2, 4, 8):
            ok, _ = run_sweep(group_size, 1.05)
            overhead = FecEncoder(group_size).overhead_ratio(60)
            rows.append((group_size, ok, overhead))
        return rows

    rows = sweep()
    print()
    for group_size, ok, overhead in rows:
        print(f"group={group_size}: success {ok:.1%}, "
              f"overhead {overhead:.1%}")
    overheads = [r[2] for r in rows]
    assert overheads == sorted(overheads, reverse=True)
