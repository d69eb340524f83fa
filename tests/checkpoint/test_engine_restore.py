"""Whole-engine restore equivalence: figure3 worlds and the serve
driver.

These tests exercise the headline guarantee in-process (the CI
``crash-restore`` job does it again with real SIGKILLed processes via
``scripts/check_restore.py``): a run restored from a checkpoint
finishes with results identical to one that was never interrupted.
"""

import io
import itertools
import json

import pytest

from repro import telemetry
from repro.checkpoint import CheckpointError, save_checkpoint
from repro.checkpoint.format import write_container
from repro.checkpoint.service import (SCENARIOS, EngineService,
                                      _command_reader, serve_main)
from repro.experiments import figure3
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
    def test_restored_run_matches_uninterrupted(self, tmp_path, system):
        reference, reference_metrics = run_world_to_end(system)

        telemetry.reset()
        world = build_world(system, CONFIG)
        advance_world(world, max_events=800)
        path = tmp_path / "mid.ckpt"
        world.sim.snapshot(path, state=world)

        poison_process_state()
        sim, restored, meta = Simulator.restore(path)
        assert meta["events_executed"] == 800
        assert not restored.done
        advance_world(restored)
        result = finish_world(restored)

        assert result.throughput.samples == reference.throughput.samples
        assert result.rolls == reference.rolls
        assert [d.time for d in result.detections] == \
            [d.time for d in reference.detections]
        assert stable_metrics(telemetry.metrics().snapshot()) == \
            reference_metrics

    def test_snapshot_is_observationally_free(self, tmp_path):
        reference, reference_metrics = run_world_to_end("fastflex")
        telemetry.reset()
        world = build_world("fastflex", CONFIG)
        for index in range(4):  # checkpoint four times mid-run
            advance_world(world, max_events=1500)
            world.sim.snapshot(tmp_path / f"free_{index}.ckpt",
                               state=world)
        advance_world(world)
        result = finish_world(world)
        assert result.throughput.samples == reference.throughput.samples
        assert stable_metrics(telemetry.metrics().snapshot()) == \
            reference_metrics

    def test_restore_rejects_non_engine_checkpoint(self, tmp_path):
        path = tmp_path / "other.ckpt"
        save_checkpoint(path, {"state": "no simulator here"})
        with pytest.raises(CheckpointError, match="Simulator"):
            Simulator.restore(path)

    def test_restore_refuses_another_containers_payload(self, tmp_path):
        """Shard and sweep files share the container; their payloads are
        not pack_state blobs and must not restore."""
        path = tmp_path / "task.ckpt"
        write_container(path, b'{"task_id": "t"}\n', {"task_id": "t"})
        with pytest.raises(CheckpointError, match="unpickle"):
            Simulator.restore(path)


class Recorder:
    """A picklable callback target (closures cannot be checkpointed)."""

    def __init__(self):
        self.log = []

    def note(self, tag):
        self.log.append(tag)


class TestQueueRestore:
    def test_same_timestamp_events_keep_their_firing_order(self, tmp_path):
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
        path = tmp_path / "ties.ckpt"
        sim.snapshot(path, state=recorder)
        restored_sim, restored, meta = Simulator.restore(path)
        assert meta["pending_events"] == 30
        restored_sim.schedule_at(2.0, restored.note, "late")
        restored_sim.run()
        assert restored.log == plain.log + ["late"]

    def test_checkpoint_naming_a_removed_engine_class_is_refused(
            self, tmp_path, monkeypatch):
        """A checkpoint from before the heap held plain tuples names
        ``engine._QueuedEvent``; restore must refuse it whole."""
        from repro.netsim import engine
        entry = type("_QueuedEvent", (), {"__module__": engine.__name__})
        monkeypatch.setattr(engine, "_QueuedEvent", entry, raising=False)
        path = tmp_path / "old.ckpt"
        Simulator().snapshot(path, state=entry())
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="_QueuedEvent"):
            Simulator.restore(path)


class TestServeDriver:
    def make_service(self, **kwargs):
        telemetry.reset()
        defaults = dict(scenario="figure3_fastflex", seed=5,
                        duration_s=4.0, step_events=400)
        defaults.update(kwargs)
        return EngineService(**defaults)

    def test_scenarios_registered(self):
        assert set(SCENARIOS) == {"figure3_fastflex",
                                  "figure3_baseline"}

    def test_batch_run_produces_result(self):
        service = self.make_service()
        result = service.run()
        assert result is not None
        assert service.world.done

    def test_stream_carries_heartbeats_and_trace(self):
        stream = io.StringIO()
        service = self.make_service(stream=stream)
        service.run()
        records = [json.loads(line) for line in
                   stream.getvalue().splitlines()]
        kinds = {record["kind"] for record in records}
        assert "service_heartbeat" in kinds
        assert "service_end" in kinds
        assert "experiment_start" in kinds  # EventTrace schema records
        heartbeats = [r for r in records
                      if r["kind"] == "service_heartbeat"]
        assert heartbeats[-1]["sim_time"] == pytest.approx(4.0)

    def test_live_injections_without_restart(self):
        stream = io.StringIO()
        service = self.make_service(stream=stream)
        service.submit({"op": "status"})
        service.submit({"op": "attach-attack", "start_delay": 0.5})
        service.submit({"op": "fail-link", "src": "s3", "dst": "s4"})
        service.run()
        acks = [json.loads(line) for line in
                stream.getvalue().splitlines()
                if '"service_ack"' in line]
        assert [a["ok"] for a in acks] == [True, True, True]
        assert service.world.attacker is not None
        assert ("s3", "s4") not in service.world.net.topo.links

    def test_detach_attack_round_trip(self):
        service = self.make_service()
        service.submit({"op": "attach-attack", "start_delay": 0.1})
        service.submit({"op": "detach-attack"})
        service.run()
        assert service.world.attacker is None

    def test_unknown_op_rejected_without_crash(self):
        stream = io.StringIO()
        service = self.make_service(stream=stream)
        service.submit({"op": "definitely-not-an-op"})
        service.run()
        acks = [json.loads(line) for line in
                stream.getvalue().splitlines()
                if '"service_ack"' in line]
        assert acks[0]["ok"] is False
        assert "unknown op" in acks[0]["error"]

    def test_mistyped_arguments_and_non_objects_are_acked_not_fatal(self):
        """Well-formed JSON with a misnamed or null argument used to
        escape as an uncaught TypeError and kill the service."""
        stream = io.StringIO()
        service = self.make_service(stream=stream)
        service.submit({"op": "attach-attack", "bogus": 1})
        service.submit({"op": "set-link-capacity", "src": "s3",
                        "dst": "s4", "capacity_bps": None})
        _command_reader(io.StringIO("not json\n[1, 2]\n"), service)
        service.submit({"op": "status"})
        assert service.run() is not None
        acks = [json.loads(line) for line in
                stream.getvalue().splitlines()
                if '"service_ack"' in line]
        assert [a["ok"] for a in acks] == [False, False, False, False, True]
        assert all("TypeError" in a["error"] for a in acks[:2])
        assert all("not a JSON object" in a["error"] for a in acks[2:4])
        assert service.world.attacker is None

    def test_stop_checkpoints_and_halts(self, tmp_path):
        service = self.make_service(checkpoint_dir=tmp_path)
        service.submit({"op": "stop"})
        result = service.run()
        assert result is None
        assert service.stopped
        assert list(tmp_path.glob("ckpt_*.ckpt"))

    def test_auto_checkpoint_and_service_restore(self, tmp_path):
        # Reference: the same service scenario, never interrupted.
        reference = self.make_service().run()
        reference_metrics = stable_metrics(
            telemetry.metrics().snapshot())

        service = self.make_service(checkpoint_dir=tmp_path,
                                    checkpoint_every_events=1000)
        service.submit({"op": "stop"})
        service.run()  # parks a checkpoint and halts

        poison_process_state()
        newest = sorted(tmp_path.glob("ckpt_*.ckpt"))[-1]
        resumed = EngineService.from_checkpoint(newest, step_events=400)
        assert resumed.scenario == "figure3_fastflex"
        result = resumed.run()
        assert result is not None
        assert result.throughput.samples == \
            reference.throughput.samples
        assert stable_metrics(telemetry.metrics().snapshot()) == \
            reference_metrics

    def test_from_checkpoint_rejects_worldless(self, tmp_path):
        telemetry.reset()
        sim = Simulator(seed=1)
        path = tmp_path / "bare.ckpt"
        sim.snapshot(path)
        with pytest.raises(CheckpointError, match="world"):
            EngineService.from_checkpoint(path)

    @pytest.mark.parametrize("cadence", [
        {"checkpoint_every_events": -5}, {"step_events": 0}])
    def test_bad_cadence_rejected_on_build_and_restore(self, tmp_path,
                                                       cadence):
        with pytest.raises(ValueError, match="must be >="):
            self.make_service(**cadence)
        path = self.make_service().checkpoint(tmp_path / "good.ckpt")
        with pytest.raises(ValueError, match="must be >="):
            EngineService.from_checkpoint(path, **cadence)

    def test_cli_report_written_for_run_shorter_than_attack_window(
            self, tmp_path):
        """Regression: the run finished, the summary raised, and the
        report was never written."""
        report = tmp_path / "report.txt"
        assert serve_main(["--duration", "6", "--attack", "--no-commands",
                           "--report-out", str(report)]) == 0
        assert "no sample fell under attack" in report.read_text()

    def test_cli_negative_checkpoint_cadence_exits_two(self, capsys):
        assert serve_main(["--checkpoint-every-events", "-5",
                           "--no-commands"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: checkpoint_every_events must be >= 0")
        assert len(err.splitlines()) == 1

    def test_cli_auto_checkpoint_without_directory_exits_two(self, capsys):
        """Regression: the service ran until its first auto-checkpoint
        and then died with a CheckpointError traceback."""
        assert serve_main(["--no-commands", "--duration", "0.5",
                           "--checkpoint-every-events", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: checkpoint_every_events needs a "
                              "checkpoint directory")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flags", [
        ["--stream", "/nonexistent/dir/x", "--no-commands"],
        ["--commands", "/nonexistent"],
    ])
    def test_cli_unopenable_file_exits_two_before_building(
            self, capsys, monkeypatch, flags):
        """Regression: --commands was opened only after the world was
        built, and either bad path ended in a FileNotFoundError
        traceback."""
        def no_build(*args, **kwargs):
            raise AssertionError("world built before the files opened")
        monkeypatch.setattr(figure3, "build_world", no_build)
        assert serve_main(flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: ")
        assert "/nonexistent" in err
        assert len(err.splitlines()) == 1

    def test_restore_checks_checkpoint_directory_before_reading(
            self, tmp_path):
        with pytest.raises(ValueError, match="needs a checkpoint directory"):
            EngineService.from_checkpoint(tmp_path / "absent.ckpt",
                                          checkpoint_every_events=100)
