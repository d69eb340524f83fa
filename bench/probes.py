"""Direct-call layer probes: one public function per layer, timed alone.

Each probe builds fixed seeded inputs, times the call ``REPEATS`` times
on fresh state and reports the minimum (the run least disturbed by the
host), and checks the call's output.  The probes cost a few seconds in
total and are workload-independent; the traced run of every workload
reports them, so that a layer's unit cost sits next to the share of the
workload it was responsible for.

Run alone with ``PYTHONPATH=src python bench/probes.py``.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Tuple

REPEATS = 3
SEED = 20190913


def best_of(make: Callable[[], Any], call: Callable[[Any], Any],
            repeats: int = REPEATS) -> Tuple[float, Any]:
    """Minimum seconds of ``call(make())`` over ``repeats`` fresh states,
    and the last call's return value."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        state = make()
        start = time.perf_counter()
        out = call(state)
        best = min(best, time.perf_counter() - start)
    return best, out


class ProbeFailure(AssertionError):
    """A probe's output check did not hold."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise ProbeFailure(what)


# ----------------------------------------------------------------------

def _noop() -> None:
    pass


def probe_engine() -> Dict[str, float]:
    from repro.netsim import Simulator
    n = 50_000

    def make():
        sim = Simulator(seed=SEED)
        for index in range(n):
            sim.schedule_at(index * 1e-6, _noop)
        return sim

    seconds, sim = best_of(make, lambda sim: (sim.run(), sim)[1])
    _expect(sim.events_executed == n, "engine probe lost events")
    return {"engine.null_event_us": seconds / n * 1e6}


def _mixed_keys(n: int) -> Tuple[List[str], List[int]]:
    """Pareto-skewed sources: a few heavy hitters, a long tail of mice."""
    rng = random.Random(SEED)
    keys, sizes = [], []
    for _ in range(n):
        j = int(rng.paretovariate(1.1)) % 1500
        keys.append(f"10.{j % 256}.{j // 256}.{j % 40}")
        sizes.append(rng.choice([64, 512, 1500]))
    return keys, sizes


def probe_dataplane() -> Dict[str, float]:
    from repro.dataplane import (BloomFilter, CountMinSketch, FlowTable,
                                 HashPipe)
    from repro.netsim import Protocol
    from repro.netsim.packet import FlowKey
    n = 20_000
    keys, sizes = _mixed_keys(n)
    interned: Dict[Any, Any] = {}
    flow_keys = [interned.setdefault(k, k) for k in (
        FlowKey(key, "h_dst", Protocol.UDP, 1000, 80) for key in keys)]
    # (name, constructor, batch kernel, sequential reference, key column)
    cases = (
        ("cms", lambda: CountMinSketch("probe.cms", width=2048, depth=4),
         lambda s, k, z: s.update_batch(k, z),
         lambda s, k, z: s.update_batch_reference(k, z), keys),
        ("bloom", lambda: BloomFilter("probe.bloom", size_bits=8192,
                                      n_hashes=4),
         lambda s, k, z: s.add_batch(k),
         lambda s, k, z: s.add_batch_reference(k), keys),
        ("hashpipe", lambda: HashPipe("probe.pipe", stages=4,
                                      slots_per_stage=64),
         lambda s, k, z: s.update_batch(k, z),
         lambda s, k, z: s.update_batch_reference(k, z), keys),
        ("flowtable", lambda: FlowTable("probe.flows", capacity=4096),
         lambda s, k, z: s.observe_batch(k, 1.0, z),
         lambda s, k, z: s.observe_batch_reference(k, 1.0, z), flow_keys),
    )
    out = {}
    for name, make, batch, reference, column in cases:
        seconds, _ = best_of(make, lambda s: batch(s, column, sizes))
        # Output check on a prefix: batch kernel == sequential reference.
        batched, sequential = make(), make()
        batch(batched, column[:2000], sizes[:2000])
        reference(sequential, column[:2000], sizes[:2000])
        _expect(batched.export_state() == sequential.export_state(),
                f"{name}: batch kernel diverged from the reference")
        out[f"dataplane.{name}_ns_per_key"] = seconds / n * 1e9
    return out


_SWITCH_PACKETS = 8192
_SWITCH_WINDOW = 2048


def _five_program_switch():
    """One edge switch running the five batch-capable defense programs
    (the hand-built pipeline of benchmarks/test_microbench_dataplane.py)."""
    from repro.boosters import (HeavyHitterFilterProgram, HeavyHitterProgram,
                                HopCountFilterBooster,
                                HopCountFilterProgram, LfaDetectorProgram,
                                PacketDropperProgram)
    from repro.netsim import Packet, Protocol, Simulator, Topology
    sim = Simulator(seed=SEED)
    topo = Topology(sim)
    topo.add_switch("s1")
    topo.add_host("h_dst", gateway="s1")
    topo.add_duplex_link("s1", "h_dst", 100e9, 1e-4, queue_bytes=10**9)
    switch = topo.switch("s1")
    switch.set_route("h_dst", ["h_dst"])
    programs = (
        HeavyHitterProgram("hh", "hh.counter", stages=4, slots_per_stage=64),
        HeavyHitterFilterProgram("hh.filter", "hh.filter"),
        LfaDetectorProgram("lfa_detector", "lfa_detector.flow_state",
                           capacity=4096),
        PacketDropperProgram("dropper", "dropper.blocklist", size_bits=8192),
        HopCountFilterProgram(HopCountFilterBooster(), "hop_count.hc_table"),
    )
    for program in programs:
        switch.install_program(program)
    for j in (37, 53, 61):
        programs[1].flag(f"10.{j % 256}.{j // 256}.{j % 40}")
    rng = random.Random(SEED)
    packets = []
    for _ in range(_SWITCH_PACKETS):
        j = int(rng.paretovariate(1.1)) % 1500
        packets.append(Packet(
            src=f"10.{j % 256}.{j // 256}.{j % 40}", dst="h_dst",
            size_bytes=rng.choice([64, 512, 1500]), proto=Protocol.UDP,
            sport=1000 + j % 16, dport=80, ttl=64 - (j % 9)))
    return sim, switch, programs, topo.host("h_dst"), packets


def _inject_scalar(switch, window) -> None:
    for packet in window:
        switch.receive(packet)


def _switch_run(batch: bool):
    """Windows are scheduled at fixed absolute times so both paths see
    identical clocks at injection."""
    def make():
        sim, switch, programs, host, packets = _five_program_switch()
        for k in range(0, len(packets), _SWITCH_WINDOW):
            window = packets[k:k + _SWITCH_WINDOW]
            when = (k // _SWITCH_WINDOW) * 1e-3
            if batch:
                sim.schedule_at(when, switch.receive_batch, window)
            else:
                sim.schedule_at(when, _inject_scalar, switch, window)
        return sim, switch, programs, host, packets

    def call(state):
        state[0].run()
        return state

    seconds, (_sim, switch, programs, host, packets) = best_of(make, call)
    hh, hh_filter, lfa, dropper, hop = programs
    end_state = {
        "hh": hh.pipe.export_state(),
        "hh_filter": hh_filter.packets_dropped,
        "lfa": lfa.table.export_state(),
        "dropper": (dropper.export_state(), dropper.packets_dropped),
        "hop": (dict(hop.learned), hop.mismatches, hop.packets_dropped),
        "switch_stats": vars(switch.stats).copy(),
        "drop_reasons": [p.dropped for p in packets],
        "host_received": dict(host.received_by_kind),
    }
    return seconds, end_state


def probe_switch() -> Dict[str, float]:
    batch_s, batch_state = _switch_run(batch=True)
    scalar_s, scalar_state = _switch_run(batch=False)
    _expect(batch_state == scalar_state,
            "batch switch end state differs from the per-packet replay")
    return {"switch.batch_us_per_pkt": batch_s / _SWITCH_PACKETS * 1e6,
            "switch.scalar_us_per_pkt": scalar_s / _SWITCH_PACKETS * 1e6}


def probe_shard_scenario() -> Dict[str, float]:
    """Allocator, path computation and partitioner on the churn
    workloads' 400-switch / 8000-flow scenario."""
    from repro.netsim import Simulator, max_min_allocate
    from repro.shard import partition_topology
    from repro.shard.region import compute_paths
    from repro.shard.scenario import build_topology, build_world
    from workloads import churn_scenario
    scenario = churn_scenario(SEED, 0.04, 0.04)

    def fresh_topology():
        return build_topology(scenario, Simulator(seed=scenario.seed))

    paths_s, paths = best_of(
        fresh_topology, lambda full: compute_paths(full, scenario),
        repeats=2)
    _expect(len(paths) == len(scenario.flows) and all(paths),
            "compute_paths left a flow without a path")
    partition_s, partition = best_of(
        fresh_topology,
        lambda full: partition_topology(full, 4, seed=scenario.seed),
        repeats=2)
    _expect(len(set(partition.assignment.values())) == 4,
            "the partitioner did not produce four regions")

    _sim, topo, flows, _flow_list = build_world(scenario)
    active = flows.active(0.0)
    pass_s, result = best_of(lambda: None,
                             lambda _: max_min_allocate(topo, active))
    _expect(len(result.rates) == len(active)
            and all(rate >= 0.0 for rate in result.rates.values()),
            "max_min_allocate returned a bad rate vector")
    return {"routing.compute_paths_s": paths_s,
            "shard.partition_s": partition_s,
            "fluid.ms_per_pass": pass_s * 1e3}


def _fig3_state(world) -> Tuple:
    return (world.sim.now, world.sim.events_executed,
            tuple(world.series.samples), world.fluid.updates,
            world.fluid.allocation_passes)


def probe_fluid_fastpath_and_checkpoint() -> Dict[str, float]:
    """On the Figure 3 FastFlex world: the steady-state fluid epoch, then
    save/restore at t = 60 s."""
    from repro.checkpoint import pack_state, unpack_state
    from repro.experiments.figure3 import (Figure3Config, advance_world,
                                           build_world)
    world = build_world("fastflex", Figure3Config(seed=SEED))
    advance_world(world, 2.0)            # steady, before the attack
    fluid = world.fluid
    n = 2000
    passes_before = fluid.allocation_passes

    def epochs(_):
        for _ in range(n):
            fluid.update()

    fast_s, _ = best_of(lambda: None, epochs)
    _expect(fluid.allocation_passes == passes_before,
            "a steady-state epoch ran the allocator")

    advance_world(world, 60.0)
    snapshot_s, blob = best_of(lambda: None, lambda _: pack_state(world))
    restore_s, restored = best_of(lambda: None,
                                  lambda _: unpack_state(blob))
    _expect(_fig3_state(restored) == _fig3_state(world),
            "the restored world differs from the original")
    # Both continue identically (the last restore left the process
    # globals at the checkpoint, which is where the original stands).
    advance_world(restored, 65.0)
    unpack_state(blob)
    advance_world(world, 65.0)
    _expect(_fig3_state(restored) == _fig3_state(world),
            "the restored world diverged from the original after resuming")
    return {"fluid.fastpath_us": fast_s / n * 1e6,
            "checkpoint.snapshot_s": snapshot_s,
            "checkpoint.restore_s": restore_s,
            "checkpoint.bytes": float(len(blob))}


def probe_telemetry() -> Dict[str, float]:
    from repro.telemetry import MetricsRegistry
    n = 200_000

    def make():
        return MetricsRegistry().counter("probe_total", "probe counter")

    def incs(counter):
        inc = counter.inc
        for _ in range(n):
            inc()
        return counter

    def empty(_counter):
        for _ in range(n):
            pass

    inc_s, counter = best_of(make, incs)
    loop_s, _ = best_of(make, empty)
    _expect(counter.value == n, "the counter lost increments")
    return {"telemetry.inc_ns": max(inc_s - loop_s, 0.0) / n * 1e9}


PROBE_FUNCTIONS = (probe_engine, probe_dataplane, probe_switch,
                   probe_shard_scenario,
                   probe_fluid_fastpath_and_checkpoint, probe_telemetry)


def run_probes() -> Dict[str, float]:
    """Every probe metric; raises :class:`ProbeFailure` on a bad output."""
    out: Dict[str, float] = {}
    for probe in PROBE_FUNCTIONS:
        out.update(probe())
    return out


if __name__ == "__main__":
    for name, value in sorted(run_probes().items()):
        print(f"{name:36s} {value:14.4f}")
