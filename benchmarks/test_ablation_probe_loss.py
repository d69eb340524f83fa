"""Ablation — mode-probe loss tolerance via re-advertisement.

Mode-change probes share links with the attack traffic that triggered
them, so they face exactly the congestion loss the defense exists to
fix.  The initiating agent's periodic re-advertisement repairs missed
switches; this bench floods every link with heavy congestion loss and
compares convergence with refresh enabled vs. (effectively) disabled.
"""


from repro.core import ModeEventBus, ModeRegistry, ModeSpec, \
    install_mode_agents
from repro.netsim import Simulator, figure2_topology
from repro.sweep import SweepSpec, register_driver, run_sweep

LOSS_OVERLOAD = 2.0  # offered load 2x capacity -> 50% probe loss


def run_case(readvertise_s, seed, horizon_s=6.0):
    sim = Simulator(seed=seed)
    net = figure2_topology(sim)
    registry = ModeRegistry()
    registry.register(ModeSpec.of("mitigate", "lfa", ()))
    bus = ModeEventBus()
    agents = install_mode_agents(net.topo, registry, bus=bus)
    for agent in agents.values():
        agent.readvertise_s = readvertise_s
    # Every switch-switch link loses half its packets.
    switch_names = set(net.topo.switch_names)
    for (a, b), link in net.topo.links.items():
        if a in switch_names and b in switch_names:
            link.fluid_load_bps = link.capacity_bps * LOSS_OVERLOAD
    start = 1.0
    sim.schedule(start, agents["s1"].initiate, "lfa", "mitigate")
    sim.run(until=start + horizon_s)
    converged = {name for name, agent in agents.items()
                 if agent.mode_table.mode_for("lfa") == "mitigate"}
    if converged == set(agents):
        latency = max(e.time for e in bus.events) - start
    else:
        latency = None
    return len(converged), len(agents), latency


@register_driver("ablation_probe_loss")
def probe_loss_driver(seed, params):
    """Sweep-runner adapter around :func:`run_case`."""
    converged, total, latency = run_case(
        readvertise_s=params["readvertise_s"], seed=seed)
    scalars = {"converged": converged, "total": total,
               "converged_fraction": converged / total}
    if latency is not None:
        scalars["latency_s"] = latency
    return {"scalars": scalars}


def _probe_loss_sweep(readvertise_s, out_dir):
    # raw_seeds keeps the historical seeds 0..4 this ablation has
    # always reported; the runner adds checkpointing + aggregation.
    return run_sweep(
        SweepSpec(experiment="ablation_probe_loss", seeds=list(range(5)),
                  base_params={"readvertise_s": readvertise_s},
                  raw_seeds=True),
        out_dir=out_dir)


def test_refresh_converges_despite_heavy_loss(tmp_path):
    result = _probe_loss_sweep(0.25, tmp_path / "refresh")
    assert result.ok, result.errors
    (group,) = result.aggregates.values()
    scalars = group["scalars"]
    # With refresh, every run converges fully under 50% probe loss.
    assert scalars["converged_fraction"]["min"] == 1.0
    assert scalars["latency_s"]["n"] == 5, "every seed must converge"
    print()
    print(f"with refresh: 5/5 runs converged, latency mean "
          f"{scalars['latency_s']['mean'] * 1e3:.0f} ms "
          f"(max {scalars['latency_s']['max'] * 1e3:.0f} ms)")


def test_without_refresh_loss_strands_switches(tmp_path):
    # A refresh period beyond the horizon = no repair wave at all.
    result = _probe_loss_sweep(100.0, tmp_path / "norefresh")
    assert result.ok, result.errors
    (group,) = result.aggregates.values()
    fraction = group["scalars"]["converged_fraction"]
    stranded_runs = sum(
        1 for record in result.records
        if record["result"]["scalars"]["converged_fraction"] < 1.0)
    print()
    print(f"without refresh: {stranded_runs}/5 runs left switches "
          f"stranded out of mode under 50% probe loss")
    assert stranded_runs >= 1, (
        "expected the single flood to miss someone at 50% loss")
    assert fraction["min"] < 1.0
