"""Whole-engine restore equivalence on figure3 worlds.

The headline guarantee, which the benchmark's checkpoint probe relies
on: a world packed mid-run with ``pack_state`` and brought back with
``unpack_state`` finishes with results identical to one that was never
interrupted.
"""

import itertools

import pytest

from repro import telemetry
from repro.checkpoint import (CheckpointError, capture_globals,
                              pack_state, restore_globals, unpack_state)
from repro.checkpoint.format import read_container, write_container
from repro.experiments.figure3 import (Figure3Config, advance_world,
                                       build_world, finish_world)
from repro.netsim import flows as flows_module
from repro.netsim.engine import Simulator
from repro.sweep.runner import stable_metrics

CONFIG = Figure3Config(duration_s=8.0, seed=11)


def run_world_to_end(system, config=CONFIG):
    telemetry.reset()
    world = build_world(system, config)
    advance_world(world)
    result = finish_world(world)
    return result, stable_metrics(telemetry.metrics().snapshot())


def poison_process_state():
    """Make the process observably different from the checkpoint-time
    process: restore must undo all of this."""
    telemetry.reset()
    flows_module._flow_ids = itertools.count(999_983)


class TestFigure3KillRestore:
    @pytest.mark.parametrize("system", ["fastflex", "baseline_sdn"])
    def test_restored_run_matches_uninterrupted(self, system):
        reference, reference_metrics = run_world_to_end(system)

        telemetry.reset()
        world = build_world(system, CONFIG)
        world.sim.run(until=CONFIG.duration_s, max_events=800)
        blob = pack_state(world)

        poison_process_state()
        restored = unpack_state(blob)
        assert restored.sim.events_executed == 800
        assert not restored.done
        advance_world(restored)
        result = finish_world(restored)

        assert result.throughput.samples == reference.throughput.samples
        assert result.rolls == reference.rolls
        assert [d.time for d in result.detections] == \
            [d.time for d in reference.detections]
        assert stable_metrics(telemetry.metrics().snapshot()) == \
            reference_metrics

    def test_snapshot_is_observationally_free(self):
        reference, reference_metrics = run_world_to_end("fastflex")
        telemetry.reset()
        world = build_world("fastflex", CONFIG)
        for _ in range(4):  # pack four times mid-run
            world.sim.run(until=CONFIG.duration_s, max_events=1500)
            pack_state(world)
        advance_world(world)
        result = finish_world(world)
        assert result.throughput.samples == reference.throughput.samples
        assert stable_metrics(telemetry.metrics().snapshot()) == \
            reference_metrics

    def test_restore_refuses_another_containers_payload(self, tmp_path):
        """A sweep task's container carries a JSON record, not a
        pack_state blob, and must not restore."""
        path = tmp_path / "task.ckpt"
        write_container(path, b'{"task_id": "t"}\n', {"task_id": "t"})
        _header, payload = read_container(path)
        with pytest.raises(CheckpointError, match="unpickle"):
            unpack_state(payload)


class TestRepurposeRestore:
    """Regression: a world with a repurposing in flight could not be
    checkpointed — the reconfiguration timer and the state-transfer
    callback were closures, which do not pickle."""

    REPURPOSE_CONFIG = Figure3Config(duration_s=3.5, seed=11)

    def repurposing_world(self, repurpose):
        world = build_world("fastflex", self.REPURPOSE_CONFIG)
        advance_world(world, 1.0)
        world.deployment.scaling.repurpose("s1", **repurpose)
        advance_world(world, 1.2)
        return world

    @pytest.mark.parametrize("repurpose", [
        {},
        {"remove": ["dropper.blocklist"], "transfer_state_to": "s2"},
    ], ids=["program-swap", "state-transfer"])
    def test_checkpoint_mid_repurpose_restores(self, repurpose):
        telemetry.reset()
        base = capture_globals()
        reference = self.repurposing_world(repurpose)
        advance_world(reference)
        reference_result = finish_world(reference)

        restore_globals(base)
        world = self.repurposing_world(repurpose)
        blob = pack_state(world)

        poison_process_state()
        restored = unpack_state(blob)
        advance_world(restored)
        result = finish_world(restored)

        assert result.throughput.samples == \
            reference_result.throughput.samples
        records = restored.deployment.scaling.records
        assert records == reference.deployment.scaling.records
        # The horizon covers the whole 2 s reconfiguration window.
        assert records[0].completed_at is not None
        if repurpose:
            assert records[0].state_transfer_ok is True


class Recorder:
    """A picklable callback target (closures cannot be checkpointed)."""

    def __init__(self):
        self.log = []

    def note(self, tag):
        self.log.append(tag)


class TestQueueRestore:
    def test_same_timestamp_events_keep_their_firing_order(self):
        """Ties are broken by the heap entries' sequence numbers, so
        those — not just the timestamps — must survive a checkpoint."""
        def build():
            sim, recorder = Simulator(seed=1), Recorder()
            for tag in range(60):      # interleave two shared timestamps
                sim.schedule_at(2.0 if tag % 3 else 1.0, recorder.note, tag)
            return sim, recorder

        plain_sim, plain = build()
        plain_sim.run()

        sim, recorder = build()
        sim.run(max_events=30)         # stops inside the t=2.0 tie group
        restored_sim, restored = unpack_state(pack_state((sim, recorder)))
        assert restored_sim.pending() == 30
        restored_sim.schedule_at(2.0, restored.note, "late")
        restored_sim.run()
        assert restored.log == plain.log + ["late"]

    def test_checkpoint_naming_a_removed_engine_class_is_refused(
            self, monkeypatch):
        """A blob from before the heap held plain tuples names
        ``engine._QueuedEvent``; restore must refuse it whole."""
        from repro.netsim import engine
        entry = type("_QueuedEvent", (), {"__module__": engine.__name__})
        monkeypatch.setattr(engine, "_QueuedEvent", entry, raising=False)
        blob = pack_state((Simulator(), entry()))
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="_QueuedEvent"):
            unpack_state(blob)


class TestGlobalsRestore:
    def test_restore_is_exact_after_a_new_label_child(self):
        from repro.baselines import sdn_te
        base = capture_globals()
        sdn_te._C_RECONFIGS.labels("x").inc(3)
        restore_globals(base)
        assert capture_globals() == base

    def test_children_cached_at_import_still_count_after_restore(self):
        from repro.baselines import sdn_te
        from repro.netsim import routecache
        base = capture_globals()
        sdn_te._C_RECONFIGS.labels("x").inc(3)
        routecache._C_HITS.labels("x").inc(3)
        restore_globals(base)
        sdn_te._C_RECONFIG_STEADY.inc(2)
        routecache._HIT["sssp"].inc(5)
        before = base["metrics"]
        after = telemetry.metrics().snapshot()
        for name, label, delta in (
                ("sdn_te_reconfigs_total", "steady", 2),
                ("routing_cache_hits_total", "sssp", 5)):
            assert after[name]["labels"][label] == \
                before[name]["labels"][label] + delta
            assert "x" not in after[name]["labels"]
