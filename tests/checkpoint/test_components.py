"""Per-component snapshot round-trip properties, over 25 seeds.

The invariant under test, for every stateful component an engine
checkpoint captures: *pack, unpack, continue* is indistinguishable
from *run straight through*.  Each property drives a component with a
seeded random workload, packs it mid-flight with ``pack_state``, keeps
running the original, unpacks the copy, applies the identical
remaining workload to both, and requires identical observables.
"""

import random

import pytest

from repro.checkpoint import pack_state, unpack_state
from repro.core import ModeEventBus, ModeRegistry, ModeSpec, \
    install_mode_agents
from repro.dataplane import BloomFilter, CountMinSketch, FlowTable, \
    HashPipe
from repro.netsim import Simulator, figure2_topology

SEEDS = range(25)


class Recorder:
    """Picklable event-callback target; lambdas cannot enter the queue."""

    def __init__(self):
        self.log = []

    def hit(self, tag):
        self.log.append(tag)


def round_trip(state):
    return unpack_state(pack_state(state))


# ----------------------------------------------------------------------
# Engine: event-queue ordering and RNG streams
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_event_queue_ordering_survives_restore(seed):
    rng = random.Random(seed)
    sim = Simulator(seed=seed)
    recorder = Recorder()
    # Deliberate timestamp collisions: ordering then rests entirely on
    # the tie-break sequence numbers, which the checkpoint must keep.
    times = [rng.choice([0.25, 0.5, 0.5, 0.75, rng.random()])
             for _ in range(40)]
    for tag, time in enumerate(times):
        sim.schedule(time, recorder.hit, tag)
    sim.run(max_events=15)
    restored = round_trip({"sim": sim, "rec": recorder})
    sim.run()  # original: straight through to the end
    restored["sim"].run()
    assert restored["rec"].log == recorder.log
    assert restored["sim"].now == sim.now
    assert restored["sim"].events_executed == sim.events_executed


@pytest.mark.parametrize("seed", SEEDS)
def test_rng_stream_continues_identically(seed):
    sim = Simulator(seed=seed)
    for _ in range(seed % 17):
        sim.rng.random()  # advance to a seed-dependent position
    restored = round_trip({"sim": sim})
    expected = [sim.rng.random() for _ in range(32)]
    actual = [restored["sim"].rng.random() for _ in range(32)]
    assert actual == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_new_events_after_restore_interleave_identically(seed):
    # Scheduling *after* the snapshot must produce the same tie-break
    # sequence numbers on both sides — the internal counter is state.
    sim = Simulator(seed=seed)
    recorder = Recorder()
    for tag in range(10):
        sim.schedule(1.0, recorder.hit, tag)
    sim.run(max_events=4)
    restored = round_trip({"sim": sim, "rec": recorder})
    for side in ((sim, recorder), (restored["sim"], restored["rec"])):
        side_sim, side_rec = side
        side_sim.schedule(1.0, side_rec.hit, "late")  # ties with tag 4+
        side_sim.run()
    assert restored["rec"].log == recorder.log


# ----------------------------------------------------------------------
# Data-plane structures
# ----------------------------------------------------------------------

def _keys(rng, n=64):
    return [f"10.0.{rng.randrange(8)}.{rng.randrange(32)}"
            for _ in range(n)]


@pytest.mark.parametrize("seed", SEEDS)
def test_count_min_sketch_round_trip(seed):
    rng = random.Random(seed)
    sketch = CountMinSketch("ckpt_cms", width=64, depth=3)
    sketch.update_batch(_keys(rng))
    restored = round_trip({"sketch": sketch})["sketch"]
    assert restored.export_state() == sketch.export_state()
    more = _keys(rng)
    sketch.update_batch(more)
    restored.update_batch(more)
    assert restored.export_state() == sketch.export_state()
    assert ([restored.estimate(k) for k in more]
            == [sketch.estimate(k) for k in more])


@pytest.mark.parametrize("seed", SEEDS)
def test_bloom_filter_round_trip(seed):
    rng = random.Random(seed)
    bloom = BloomFilter("ckpt_bloom", size_bits=512, n_hashes=3)
    bloom.add_batch(_keys(rng))
    restored = round_trip({"bloom": bloom})["bloom"]
    assert restored.export_state() == bloom.export_state()
    probe = _keys(rng)
    assert [k in restored for k in probe] == [k in bloom for k in probe]


@pytest.mark.parametrize("seed", SEEDS)
def test_hashpipe_round_trip(seed):
    rng = random.Random(seed)
    pipe = HashPipe("ckpt_pipe", stages=3, slots_per_stage=16)
    pipe.update_batch(_keys(rng, 128))
    restored = round_trip({"pipe": pipe})["pipe"]
    assert restored.export_state() == pipe.export_state()
    more = _keys(rng, 64)
    pipe.update_batch(more)
    restored.update_batch(more)
    assert restored.export_state() == pipe.export_state()
    assert ([restored.estimate(k) for k in more]
            == [pipe.estimate(k) for k in more])
    assert restored.top_k(5) == pipe.top_k(5)


@pytest.mark.parametrize("seed", SEEDS)
def test_flow_table_round_trip(seed):
    rng = random.Random(seed)
    table = FlowTable("ckpt_flows", capacity=64)
    now = 0.0
    for key in _keys(rng, 96):
        now += rng.random() * 0.01
        table.observe(key, now, size_bytes=rng.randrange(40, 1500))
    restored = round_trip({"table": table})["table"]
    assert restored.export_state() == table.export_state()
    for key in _keys(rng, 32):
        now += 0.001
        table.observe(key, now, size_bytes=100)
        restored.observe(key, now, size_bytes=100)
    assert restored.export_state() == table.export_state()


# ----------------------------------------------------------------------
# Mode-change protocol timers
# ----------------------------------------------------------------------

def _mode_world(seed):
    sim = Simulator(seed=seed)
    net = figure2_topology(sim)
    registry = ModeRegistry()
    registry.register(ModeSpec.of("mitigate", "lfa", boosters_on=("m",)))
    bus = ModeEventBus()
    agents = install_mode_agents(net.topo, registry, bus=bus)
    return sim, net, agents, bus


def _mode_observables(agents, bus):
    return {
        "modes": {name: agent.mode_table.mode_for("lfa")
                  for name, agent in sorted(agents.items())},
        "applied": {name: agent.mode_table.changes_applied
                    for name, agent in sorted(agents.items())},
        "probes": {name: agent.probes_sent
                   for name, agent in sorted(agents.items())},
        "bus": [(event.time, event.switch, event.attack_type,
                 event.new_mode, event.epoch) for event in bus.events],
    }


@pytest.mark.parametrize("seed", range(0, 25, 5))
def test_mode_protocol_timers_survive_restore(seed):
    """Snapshot mid-flood: pending probe deliveries and re-advertise
    timers must continue exactly — same final mode tables, same probe
    counts, same bus timeline.  (A subset of seeds: each case builds a
    full Figure 2 network.)"""
    initiator = ["s1", "s2", "s3", "s4", "s5"][seed % 5]
    sim, net, agents, bus = _mode_world(seed)
    agents[initiator].initiate("lfa", "mitigate")
    sim.run(max_events=5 + seed)  # cut mid-flood at a seed-varied point
    restored = round_trip({"sim": sim, "agents": agents, "bus": bus})
    sim.run(until=2.0)
    restored["sim"].run(until=2.0)
    assert _mode_observables(restored["agents"], restored["bus"]) == \
        _mode_observables(agents, bus)
    assert all(agent.mode_table.mode_for("lfa") == "mitigate"
               for agent in restored["agents"].values())
