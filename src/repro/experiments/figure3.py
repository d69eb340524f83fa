"""The Figure 3 experiment: FastFlex vs. the SDN baseline under rolling LFA.

Reproduces the paper's only quantitative result: normalized throughput of
normal user flows over a two-minute run while a rolling Crossfire
attacker floods the Figure 2 network's critical links.

* **Baseline** — centralized SDN TE reconfigures every 30 s; the attacker
  detects each reconfiguration via traceroute and rolls to the new
  victim-ward path, so normal traffic keeps collapsing.
* **FastFlex** — detection, mode change, selective rerouting, policing,
  and obfuscation all happen in the data plane at sub-second timescales;
  the attacker never sees a route change to react to.

Run ``python -m repro figure3`` to print both time series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Dict, List, Optional, Tuple

from ..attacks.rolling import RollingAttacker
from ..baselines.sdn_te import SdnTeDefense
from ..boosters.lfa_defense import LfaDefense, build_figure2_defense
from ..core.te import greedy_min_max_te
from ..netsim.flows import FlowSet, make_flow
from ..netsim.fluid import FluidNetwork
from ..netsim.monitor import Monitor, TimeSeries
from ..netsim.routing import (install_fast_reroute_alternates,
                              install_flow_route, install_host_routes,
                              install_switch_routes)
from ..netsim.topology import GBPS, FigureTwoNetwork, figure2_topology
from ..netsim.engine import Simulator
from ..telemetry import metrics, phase_timer, trace

_TRACE = trace()


@dataclass
class Figure3Config:
    """Knobs of the Figure 3 scenario (defaults follow §4.3)."""

    duration_s: float = 120.0
    seed: int = 7
    # Legitimate workload: each client pulls steadily from the victim.
    n_clients: int = 4
    client_demand_bps: float = 1.5 * GBPS
    # Attack: bots x many low-rate connections (Crossfire).
    n_bots: int = 6
    connections_per_bot: int = 200
    per_connection_bps: float = 10e6
    attack_start_s: float = 5.0
    # Topology: critical links at 10 Gbps, detours deliberately smaller
    # so default TE concentrates normal traffic on the short paths.
    critical_capacity: float = 10 * GBPS
    detour_capacity: float = 2 * GBPS
    # Baseline controller.
    te_period_s: float = 30.0
    # Attacker feedback loop.
    attacker_check_period_s: float = 1.0
    attacker_reaction_delay_s: float = 1.0
    # Measurement.
    sample_period_s: float = 0.5
    fluid_interval_s: float = 0.01

    def __post_init__(self) -> None:
        # Written so NaN fails too: a NaN horizon never satisfies
        # ``now >= duration_s``, and neither does ``inf``, so either run
        # would never end.
        if not 0 < self.duration_s < math.inf:
            raise ValueError(f"duration_s must be > 0 and finite, got "
                             f"{self.duration_s!r}")

    @property
    def normal_demand_total(self) -> float:
        return self.n_clients * self.client_demand_bps

    @property
    def attack_window(self) -> Tuple[float, float]:
        """``[t0, t1)`` the under-attack statistics are taken over."""
        return self.attack_start_s + 2.0, self.duration_s


@dataclass
class Figure3Result:
    """One system's run: the throughput series plus event annotations."""

    system: str
    throughput: TimeSeries
    attack_events: List = field(default_factory=list)
    detections: List = field(default_factory=list)
    mode_events: List = field(default_factory=list)
    te_reconfigs: List = field(default_factory=list)
    rolls: int = 0
    #: Fluid-model work counters: epochs processed vs. actual allocator
    #: runs (the difference is epochs served by the steady-state fast
    #: path — a direct view of how much reallocation the attack forced).
    fluid_updates: int = 0
    fluid_allocation_passes: int = 0
    #: Per-system metrics-registry snapshot.  Populated by
    #: :func:`run_both`, which isolates the process-wide registry around
    #: each system's run so the two systems' counters never conflate;
    #: empty when ``run_baseline`` / ``run_fastflex`` are called directly
    #: (the caller owns registry hygiene then).
    metrics: Dict = field(default_factory=dict)

    def mean_during_attack(self, config: Figure3Config) -> float:
        return self.throughput.mean_over(*config.attack_window)

    def min_during_attack(self, config: Figure3Config) -> float:
        return self.throughput.min_over(*config.attack_window)


@dataclass
class Figure3World:
    """A live Figure 3 run: every named root in one bag.

    ``build_world`` constructs it, ``advance_world`` moves simulation
    time forward (in one call or many — chunking is observationally
    free), ``finish_world`` turns it into a :class:`Figure3Result`.
    ``pack_state(world)`` captures the whole object graph; the
    benchmark's checkpoint probe restores it mid-run and runs it on.
    """

    system: str
    config: Figure3Config
    sim: Simulator
    net: FigureTwoNetwork
    fluid: FluidNetwork
    flows: FlowSet
    monitor: Monitor
    series: TimeSeries
    defense: object
    attacker: RollingAttacker
    deployment: Optional[object] = None

    @property
    def done(self) -> bool:
        return self.sim.now >= self.config.duration_s


def _build_network(config: Figure3Config) -> Tuple[Simulator,
                                                   FigureTwoNetwork,
                                                   FluidNetwork, FlowSet]:
    sim = Simulator(seed=config.seed)
    net = figure2_topology(
        sim, n_clients=config.n_clients, n_bots=config.n_bots,
        critical_capacity=config.critical_capacity,
        detour_capacity=config.detour_capacity)
    flows = FlowSet()
    for index, client in enumerate(net.client_hosts):
        flows.add(make_flow(client, net.victim,
                            config.client_demand_bps,
                            sport=10000 + index))
    fluid = FluidNetwork(net.topo, flows,
                         update_interval=config.fluid_interval_s)
    return sim, net, fluid, flows


def _launch_attacker(net: FigureTwoNetwork, fluid: FluidNetwork,
                     config: Figure3Config) -> RollingAttacker:
    attacker = RollingAttacker(
        net.topo, fluid, bots=net.bot_hosts, decoys=net.decoy_servers,
        victim=net.victim,
        check_period_s=config.attacker_check_period_s,
        reaction_delay_s=config.attacker_reaction_delay_s,
        connections_per_bot=config.connections_per_bot,
        per_connection_bps=config.per_connection_bps)
    # Mapping (one traceroute) takes well under a second; start it early
    # so the flood lands at ``attack_start_s``.
    attacker.map_then_attack(
        start_delay=max(config.attack_start_s - 1.0, 0.0))
    return attacker


def build_world(system: str, config: Optional[Figure3Config] = None
                ) -> Figure3World:
    """Build one system's live world, attacker launched, ready to
    ``advance_world``.

    ``system`` is ``"baseline_sdn"`` or ``"fastflex"``.  Construction
    order is part of the determinism contract — every RNG draw and
    event sequence number below must match what the pre-world-API
    runners did.
    """
    config = config if config is not None else Figure3Config()
    _TRACE.set_context(system=system)
    _TRACE.emit("experiment_start", sim_time=0.0, experiment="figure3",
                duration_s=config.duration_s, seed=config.seed)
    sim, net, fluid, flows = _build_network(config)

    deployment = None
    if system == "baseline_sdn":
        topo = net.topo
        install_host_routes(topo)
        install_switch_routes(topo)
        install_fast_reroute_alternates(topo)
        # Initial configuration: TE over the stable (pre-attack) matrix.
        greedy_min_max_te(topo, list(flows))
        for flow in flows:
            install_flow_route(topo, flow.path)
        defense: object = SdnTeDefense(topo, fluid,
                                       period_s=config.te_period_s)
        defense.start()
    elif system == "fastflex":
        lfa: LfaDefense = build_figure2_defense(net, fluid)
        deployment = lfa.setup(flows)
        for flow in flows:
            install_flow_route(net.topo, flow.path)
        defense = lfa
    else:
        raise ValueError(f"unknown figure3 system {system!r}; expected "
                         f"'baseline_sdn' or 'fastflex'")

    fluid.start()
    monitor = Monitor(fluid, period=config.sample_period_s)
    series = monitor.watch_normal_goodput(config.normal_demand_total)
    monitor.start()

    attacker = _launch_attacker(net, fluid, config)
    return Figure3World(system=system, config=config, sim=sim, net=net,
                        fluid=fluid, flows=flows, monitor=monitor,
                        series=series, defense=defense,
                        deployment=deployment, attacker=attacker)


def advance_world(world: Figure3World,
                  until: Optional[float] = None) -> float:
    """Run the world forward to ``until`` (default: the configured
    horizon); returns the simulation clock.

    Splitting the horizon into many ``advance_world`` calls executes
    the exact same event sequence as one call — chunking only decides
    how often control returns to the caller.
    """
    horizon = until if until is not None else world.config.duration_s
    return world.sim.run(until=horizon)


def finish_world(world: Figure3World) -> Figure3Result:
    """Close out a finished (or abandoned) run into a result object."""
    rolls = world.attacker.roll_count
    _TRACE.emit("experiment_end", sim_time=world.sim.now,
                experiment="figure3", rolls=rolls)
    _TRACE.clear_context("system")
    result = Figure3Result(
        system=world.system, throughput=world.series,
        attack_events=list(world.attacker.events),
        rolls=rolls,
        fluid_updates=world.fluid.updates,
        fluid_allocation_passes=world.fluid.allocation_passes)
    if world.system == "baseline_sdn":
        result.te_reconfigs = list(world.defense.records)
    else:
        result.detections = list(world.defense.detector.detections)
        result.mode_events = list(world.deployment.bus.events)
    return result


def run_baseline(config: Optional[Figure3Config] = None) -> Figure3Result:
    """The SDN-TE baseline run."""
    config = config if config is not None else Figure3Config()
    world = build_world("baseline_sdn", config)
    with phase_timer("figure3_baseline_run", trace=_TRACE,
                     sim_time=config.duration_s):
        advance_world(world, config.duration_s)
    return finish_world(world)


def run_fastflex(config: Optional[Figure3Config] = None) -> Figure3Result:
    """The FastFlex run (multimode data plane, no runtime controller)."""
    config = config if config is not None else Figure3Config()
    world = build_world("fastflex", config)
    with phase_timer("figure3_fastflex_run", trace=_TRACE,
                     sim_time=config.duration_s):
        advance_world(world, config.duration_s)
    return finish_world(world)


def run_both(config: Optional[Figure3Config] = None
             ) -> Dict[str, Figure3Result]:
    """Run both systems with per-system metrics isolation.

    Both runs share one process-wide registry, so without isolation a
    ``--metrics`` snapshot after ``run_both`` would silently sum the
    baseline's and FastFlex's counters into one number per series.
    Instead the registry is snapshotted and reset around each run: each
    :class:`Figure3Result` carries its own clean snapshot in
    ``result.metrics``, and at the end the registry is rebuilt as
    pre-existing state + baseline + fastflex via
    :meth:`~repro.telemetry.MetricsRegistry.merge`, so callers that
    accumulated metrics before ``run_both`` (e.g. ``python -m repro
    all``) lose nothing and a whole-process snapshot still totals up.
    """
    config = config if config is not None else Figure3Config()
    registry = metrics()
    pre_existing = registry.snapshot()
    registry.reset()
    snapshots = []
    try:
        baseline = run_baseline(config)
        baseline.metrics = registry.snapshot()
        snapshots.append(baseline.metrics)
        registry.reset()
        fastflex = run_fastflex(config)
        fastflex.metrics = registry.snapshot()
        snapshots.append(fastflex.metrics)
        registry.reset()
    finally:
        # Restore the registry even if a run raised: pre-existing state
        # + every completed run's snapshot + whatever partial state the
        # failed run left live (all-zero on success, so merge skips it).
        partial = registry.snapshot()
        registry.reset()
        registry.merge(pre_existing, *snapshots, partial)
    return {"baseline_sdn": baseline, "fastflex": fastflex}


def format_report(results: Dict[str, Figure3Result],
                  config: Figure3Config) -> str:
    """The Figure 3 series and summary, as printable text."""
    lines = ["Figure 3 — normalized throughput of normal flows",
             f"(attack starts at t={config.attack_start_s:.0f}s; "
             f"baseline TE period {config.te_period_s:.0f}s)", ""]
    lines.append(f"{'t (s)':>7}  " + "  ".join(
        f"{name:>14}" for name in sorted(results)))
    samples = {name: dict(r.throughput.samples)
               for name, r in results.items()}
    times = sorted({t for s in samples.values() for t in s})
    for t in times:
        row = [f"{t:7.1f}"]
        for name in sorted(results):
            value = samples[name].get(t)
            row.append(f"{value:14.3f}" if value is not None else " " * 14)
        lines.append("  ".join(row))
    lines.append("")
    t0, t1 = config.attack_window
    for name in sorted(results):
        result = results[name]
        if not result.throughput.window(t0, t1):
            # A run too short to reach the window still gets its series.
            lines.append(f"{name:>14}: no sample fell under attack (the "
                         f"window [{t0:.1f}s, {t1:.1f}s) is empty), "
                         f"attacker rolls {result.rolls}")
            continue
        mean = result.mean_during_attack(config)
        low = result.min_during_attack(config)
        lines.append(f"{name:>14}: mean under attack {mean:6.1%}, "
                     f"worst sample {low:6.1%}, attacker rolls "
                     f"{result.rolls}")
    return "\n".join(lines)
