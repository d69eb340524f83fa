"""The five benchmark workloads.

Each workload is a *unit* of simulation that is set up and run many
times: ``setup(seed, scale)`` generates the inputs from the seed and
builds the world (timed as ``setup_s``), ``run(world)`` advances it to
its horizon (timed as ``wall_s``) and returns a :class:`Unit` holding
every simulated statistic, the telemetry snapshot and the verdicts of
the workload's own output checks.  Only public ``repro`` entry points
are called; the program never sees the seed, only what was generated
from it.

Why these five (bench/README.md has the long version):

* ``fig3_rolling`` — the paper's one experiment.  Engine, the fluid
  steady-state fast path and ``boosters.reroute`` carry it; the batch
  data plane and ``shard`` do nothing.
* ``pkt_batch_defended`` / ``pkt_scalar_defended`` — the same
  controller-deployed six-booster stack under a packet flood, fed once
  through ``receive_batch`` and once through ``receive``.  A batch-path
  gain bought at the scalar path's expense shows as a split.
* ``shard_local_churn`` / ``single_global_churn`` — the same churning
  fluid scenario as many small allocator problems behind a barrier and
  as one large problem without one.

Seeds perturb inputs without changing how much work a unit is (a
shuffle of fixed rate multipliers, a jittered attack start, a different
demand-change stream on a fixed topology), so that runs on different
seeds stay comparable in time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import os
import random
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.boosters import (CongestionRerouteBooster, HeavyHitterBooster,
                            HopCountFilterBooster, LfaDetectorBooster,
                            PacketDropperBooster,
                            TopologyObfuscationBooster)
from repro.core import FastFlexController
from repro.experiments.figure3 import (Figure3Config, advance_world,
                                       build_world, finish_world)
from repro.netsim import (BatchPacketSource, FlowSet, FluidNetwork,
                          PacketSource, Simulator, ThroughputMeter,
                          figure2_topology, install_flow_route, make_flow)
from repro.shard import random_scenario, run_sharded
from repro.shard.scenario import (DemandChange, GoodputSampler,
                                  aggregate_samples, flow_finals)
from repro.shard.scenario import build_world as build_shard_world
from repro.sweep import stable_metrics


@dataclass
class Unit:
    """What one run of a workload produced."""

    sim_seconds: float
    #: Every simulated statistic; its canonical JSON is the sim digest.
    stats: Dict[str, Any]
    #: Telemetry registry snapshot covering set-up and run.
    snapshot: Dict[str, Any]
    #: Output checks that failed (empty when the run is correct).
    failures: List[str]
    #: Output checks attempted.
    checks: int
    packets: int = 0
    #: Per-layer counts that come from returned records rather than the
    #: registry, keyed by their BENCHMARK.json name.
    extra: Dict[str, float] = field(default_factory=dict)


class _Checks:
    """Collects named invariant verdicts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ----------------------------------------------------------------------
# fig3_rolling
# ----------------------------------------------------------------------

class Fig3Rolling:
    name = "fig3_rolling"
    systems = ("baseline_sdn", "fastflex")

    def setup(self, seed: int, scale: float):
        rng = random.Random(f"fig3_rolling:{seed}")
        config = Figure3Config(
            seed=seed,
            # Summary statistics need a few seconds past the attack start.
            duration_s=max(120.0 * scale, 14.0),
            attack_start_s=4.0 + 2.0 * rng.random(),
            attacker_reaction_delay_s=0.75 + 0.5 * rng.random())
        return config, [build_world(system, config)
                        for system in self.systems]

    def run(self, world, inline: bool = False) -> Unit:
        config, worlds = world
        results = {}
        for one in worlds:
            advance_world(one)
            results[one.system] = finish_world(one)
        snapshot = telemetry.metrics().snapshot()
        baseline, fastflex = (results[s] for s in self.systems)

        checks = _Checks()
        checks.expect(
            fastflex.mean_during_attack(config)
            > baseline.mean_during_attack(config),
            "FastFlex mean throughput under attack is not above the "
            "baseline's")
        checks.expect(len(fastflex.detections) >= 1,
                      "FastFlex never detected the attack")
        checks.expect(len(fastflex.mode_events) >= len(
            worlds[1].net.topo.switch_names),
            "the mode change did not reach every switch")
        checks.expect(baseline.fluid_updates == fastflex.fluid_updates > 0,
                      "fluid epoch counts differ between the systems")

        stats = {
            system: {
                "throughput": result.throughput.samples,
                "rolls": result.rolls,
                "attack_events": result.attack_events,
                "detections": result.detections,
                "mode_events": result.mode_events,
                "te_reconfigs": result.te_reconfigs,
                "fluid_updates": result.fluid_updates,
                "fluid_allocation_passes": result.fluid_allocation_passes,
            } for system, result in results.items()}
        stats["stable_metrics"] = stable_metrics(snapshot)
        return Unit(sim_seconds=config.duration_s * len(worlds),
                    stats=stats, snapshot=snapshot,
                    failures=checks.failures, checks=checks.attempted)


# ----------------------------------------------------------------------
# pkt_batch_defended / pkt_scalar_defended
# ----------------------------------------------------------------------

_LEGIT_PPS = 1500.0
_BOT_PPS = 3000.0
_PACKET_BYTES = 1000
#: Shuffled over the hosts by the seed: the offered total stays put.
_LEGIT_MULTIPLIERS = (0.85, 0.95, 1.05, 1.15)
_BOT_MULTIPLIERS = (0.8, 0.9, 0.95, 1.05, 1.1, 1.2)
_HH_PERIOD_S = 0.1
#: Bytes per heavy-hitter window: above the busiest legitimate client
#: (1500 * 1.15 * 0.1 s * 1000 B = 172.5 kB), below the quietest bot
#: (3000 * 0.8 * 0.1 s * 1000 B = 240 kB).
_HH_THRESHOLD_BYTES = 200_000
_HH_CLEAR_AFTER_S = 0.5
_PRE_FLOOD_S = 0.5
_POST_FLOOD_S = 1.0
_METER_WINDOW_S = 0.1


@dataclass
class _PacketWorld:
    sim: Simulator
    net: Any
    deployment: Any
    heavy_hitter: HeavyHitterBooster
    meter: ThroughputMeter
    legit: List[Any]
    bots: List[Any]
    flood_stop_s: float
    end_s: float


class _PacketDefended:
    """Figure 2 network, the controller-deployed six-booster stack, four
    legitimate clients and six flooding bots; no fluid traffic.

    The heavy-hitter booster drives the defense on its own: it flags the
    bots in its first full window of the flood, initiates the mode
    change, the probes carry it to every switch, the filter cuts the
    bots, and once the flood has stopped the network reverts.
    """

    source_class: Any = None
    flood_s = 0.0
    source_args: Dict[str, Any] = {}

    def setup(self, seed: int, scale: float) -> _PacketWorld:
        rng = random.Random(f"pkt_defended:{seed}")
        legit_mult = list(_LEGIT_MULTIPLIERS)
        bot_mult = list(_BOT_MULTIPLIERS)
        rng.shuffle(legit_mult)
        rng.shuffle(bot_mult)
        flood_s = max(self.flood_s * scale, 0.3)
        flood_stop_s = _PRE_FLOOD_S + flood_s
        end_s = flood_stop_s + _POST_FLOOD_S

        sim = Simulator(seed=seed)
        net = figure2_topology(sim)
        topo = net.topo
        # The stable traffic matrix the controller plans TE and placement
        # over: the legitimate clients only.
        matrix = FlowSet()
        for index, client in enumerate(net.client_hosts):
            matrix.add(make_flow(
                client, net.victim,
                _LEGIT_PPS * legit_mult[index] * _PACKET_BYTES * 8,
                sport=1000 + index))
        heavy_hitter = HeavyHitterBooster(
            byte_threshold=_HH_THRESHOLD_BYTES,
            check_period_s=_HH_PERIOD_S, clear_after_s=_HH_CLEAR_AFTER_S)
        controller = FastFlexController(topo, [
            LfaDetectorBooster(),
            CongestionRerouteBooster(protected_gateways=[net.right_edge]),
            PacketDropperBooster(), TopologyObfuscationBooster(),
            heavy_hitter, HopCountFilterBooster()])
        deployment = controller.setup(matrix)
        for flow in matrix:
            install_flow_route(topo, flow.path)

        meter = ThroughputMeter(topo, net.victim, window_s=_METER_WINDOW_S)
        legit = [
            self.source_class(
                topo, client, net.victim, _LEGIT_PPS * legit_mult[index],
                size_bytes=_PACKET_BYTES, sport=1000 + index,
                **self.source_args).start(rng.uniform(0.0, 0.01))
            for index, client in enumerate(net.client_hosts)]
        bots = []
        for index, bot in enumerate(net.bot_hosts):
            source = self.source_class(
                topo, bot, net.victim, _BOT_PPS * bot_mult[index],
                size_bytes=_PACKET_BYTES, sport=2000 + index,
                **self.source_args)
            source.start(_PRE_FLOOD_S + rng.uniform(0.0, 0.01))
            sim.schedule_at(flood_stop_s, source.stop)
            bots.append(source)
        return _PacketWorld(sim=sim, net=net, deployment=deployment,
                            heavy_hitter=heavy_hitter, meter=meter,
                            legit=legit, bots=bots,
                            flood_stop_s=flood_stop_s, end_s=end_s)

    def run(self, world: _PacketWorld, inline: bool = False) -> Unit:
        world.sim.run(until=world.end_s)
        snapshot = telemetry.metrics().snapshot()
        topo = world.net.topo
        meter = world.meter
        deployment = world.deployment
        detections = world.heavy_hitter.detection_events
        switches = topo.switch_names

        checks = _Checks()
        checks.expect(len(detections) >= 1, "no heavy-hitter detection")
        flagged = {source for _t, _sw, heavy in detections
                   for source in heavy}
        checks.expect(flagged == set(world.net.bot_hosts),
                      f"flagged sources {sorted(flagged)} are not exactly "
                      f"the bots")
        entered = {e.switch for e in deployment.bus.events
                   if e.new_mode != "default"}
        checks.expect(entered == set(switches),
                      "the mode change did not reach every switch")
        checks.expect(
            all(agent.mode_table.mode_for("ddos") == "default"
                for agent in deployment.mode_agents.values()),
            "not every agent is back in the default mode")
        # The last full meter window of the flood.
        last = max(index for index, window in enumerate(
            meter.windows[world.net.client_hosts[0]])
            if window.end <= world.flood_stop_s + 1e-9)
        for source in world.bots:
            offered = source.rate_pps * _METER_WINDOW_S
            delivered = meter.windows[source.host.name][last].packets
            checks.expect(delivered < 0.1 * offered,
                          f"{source.host.name} still delivers {delivered} "
                          f"of {offered:.0f} packets per window")
        for source in world.legit:
            delivered = meter.delivered(source.host.name)
            checks.expect(delivered >= 0.95 * source.packets_sent,
                          f"{source.host.name} delivered {delivered} of "
                          f"{source.packets_sent}")

        sources = world.legit + world.bots
        switch_stats = {name: vars(topo.switch(name).stats)
                        for name in switches}
        stats = {
            "sent": {s.host.name: s.packets_sent for s in sources},
            "delivered": {s.host.name: meter.delivered(s.host.name)
                          for s in sources},
            "windows": {name: [w.packets for w in windows]
                        for name, windows in meter.windows.items()},
            "detections": detections,
            "mode_events": deployment.bus.events,
            "switch_stats": switch_stats,
            "link_drops": {f"{a}->{b}": link.stats.packets_dropped
                           for (a, b), link in topo.links.items()},
            "stable_metrics": stable_metrics(snapshot),
        }
        dropped = sum(s["packets_dropped_by_program"]
                      for s in switch_stats.values())
        return Unit(sim_seconds=world.end_s, stats=stats, snapshot=snapshot,
                    failures=checks.failures, checks=checks.attempted,
                    packets=sum(s.packets_sent for s in sources),
                    extra={"boosters.packets_dropped": float(dropped),
                           "boosters.detections": float(len(detections))})


class PktBatchDefended(_PacketDefended):
    name = "pkt_batch_defended"
    source_class = BatchPacketSource
    source_args = {"window_s": 0.01}
    flood_s = 4.5


class PktScalarDefended(_PacketDefended):
    name = "pkt_scalar_defended"
    source_class = PacketSource
    flood_s = 0.7


# ----------------------------------------------------------------------
# shard_local_churn / single_global_churn
# ----------------------------------------------------------------------

#: The topology, flow endpoints and partition are the same for every
#: seed (they set how much work a unit is); the seed draws the churn.
_TOPOLOGY_SEED = 42
_EPOCH_S = 0.04
_CHURN_PER_EPOCH = 120


def churn_scenario(seed: int, duration_s: float, sample_period_s: float):
    scenario = random_scenario(
        seed=_TOPOLOGY_SEED, n_switches=400, n_hosts=800, n_flows=8000,
        extra_edges=120, source_hosts=128, duration_s=duration_s,
        fluid_interval_s=_EPOCH_S, sample_period_s=sample_period_s)
    rng = random.Random(f"churn:{seed}")
    levels = sorted({spec.demand_bps for spec in scenario.flows})
    changes = [
        DemandChange(time_s=(epoch + 0.5) * _EPOCH_S,
                     flow_index=rng.randrange(len(scenario.flows)),
                     demand_bps=levels[rng.randrange(len(levels))])
        for epoch in range(int(duration_s / _EPOCH_S))
        for _ in range(_CHURN_PER_EPOCH)]
    return replace(scenario, changes=changes)


def _expected_ticks(duration_s: float, step_s: float) -> int:
    """How many times a ``t += step`` loop runs before reaching the
    horizon (the coordinator's window loop, float for float)."""
    t, ticks = 0.0, 0
    while t < duration_s:
        t = min(t + step_s, duration_s)
        ticks += 1
    return ticks


class ShardLocalChurn:
    name = "shard_local_churn"
    regions = 4
    window_s = 0.125
    duration_s = 2.0

    def setup(self, seed: int, scale: float):
        duration = max(self.duration_s * scale, 2 * self.window_s)
        return churn_scenario(seed, duration, sample_period_s=0.25)

    def run(self, scenario, inline: bool = False) -> Unit:
        workers = 1 if inline else min(2, os.cpu_count() or 1)
        record = run_sharded(scenario, n_regions=self.regions,
                             workers=workers, sync="local",
                             window_s=self.window_s)
        transport = record["transport"]
        checks = _Checks()
        checks.expect(record["allocation_passes"] > 0,
                      "no allocation pass ran")
        checks.expect(len(record["flows"]) == len(scenario.flows),
                      "a flow is missing from the result")
        expected = _expected_ticks(scenario.duration_s, self.window_s)
        checks.expect(transport["windows"] == expected,
                      f"{transport['windows']} windows, expected {expected}")
        worker_cpu = transport["cpu_time_s"]["workers"]
        stats = {key: record[key] for key in (
            "samples", "flows", "updates", "allocation_passes",
            "cut_edges", "merged_stable_metrics")}
        extra = {
            "shard.windows": float(transport["windows"]),
            "shard.cut_edges": float(record["cut_edges"]),
            "shard.messages": float(sum(transport["messages"].values())),
            "shard.state_bytes": float(sum(
                transport["state_bytes"].values())),
            "shard.barrier_s": transport["barrier_seconds_total"],
            "shard.coord_cpu_s": transport["cpu_time_s"]["coordinator"],
            "shard.worker_cpu_s_sum": sum(worker_cpu),
            "shard.worker_cpu_s_max": max(worker_cpu, default=0.0),
            "shard.workers": float(len(worker_cpu)),
        }
        return Unit(sim_seconds=scenario.duration_s, stats=stats,
                    snapshot=record["merged_stable_metrics"],
                    failures=checks.failures, checks=checks.attempted,
                    extra=extra)


class SingleGlobalChurn:
    name = "single_global_churn"
    duration_s = 0.56

    def setup(self, seed: int, scale: float):
        duration = max(self.duration_s * scale, 2 * _EPOCH_S)
        scenario = churn_scenario(seed, duration,
                                   sample_period_s=2 * _EPOCH_S)
        sim, topo, flows, flow_list = build_shard_world(scenario)
        fluid = FluidNetwork(topo, flows,
                             update_interval=scenario.fluid_interval_s,
                             tcp_tau=scenario.tcp_tau)
        return scenario, sim, fluid, flow_list

    def run(self, world, inline: bool = False) -> Unit:
        scenario, sim, fluid, flow_list = world
        fluid.start()
        sampler = GoodputSampler(sim, flow_list, [])
        sampler.start(scenario.sample_period_s)
        sim.run(until=scenario.duration_s)
        snapshot = telemetry.metrics().snapshot()
        finals = flow_finals(flow_list)
        checks = _Checks()
        checks.expect(fluid.allocation_passes > 0, "no allocation pass ran")
        checks.expect(len(finals) == len(scenario.flows),
                      "a flow is missing from the result")
        # One epoch at t = 0 plus one per interval up to the horizon.
        expected = int(scenario.duration_s / _EPOCH_S + 1e-9) + 1
        checks.expect(fluid.updates == expected,
                      f"{fluid.updates} fluid epochs, expected {expected}")
        stats = {
            "samples": aggregate_samples([sampler.records]),
            "flows": finals,
            "updates": fluid.updates,
            "allocation_passes": fluid.allocation_passes,
            "stable_metrics": stable_metrics(snapshot),
        }
        return Unit(sim_seconds=scenario.duration_s, stats=stats,
                    snapshot=snapshot, failures=checks.failures,
                    checks=checks.attempted)


WORKLOADS: Tuple[Any, ...] = (
    Fig3Rolling(), PktBatchDefended(), PktScalarDefended(),
    ShardLocalChurn(), SingleGlobalChurn(),
)


def by_name(name: str) -> Optional[Any]:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    return None
