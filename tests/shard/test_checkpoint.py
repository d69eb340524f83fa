"""Sharded checkpoint/resume: interval snapshots, crash recovery."""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.checkpoint import CheckpointError
from repro.checkpoint.format import read_header
from repro.shard import coordinator, figure3_scenario, run_sharded
from repro.shard.coordinator import CHECKPOINT_NAME
from repro.shard.workers import ResidentRegionHost


def scenario_for(seed=0):
    return figure3_scenario(seed=seed, duration_s=2.0, attack_start_s=1.0)


def canonical(record):
    record = dict(record)
    record.pop("transport", None)  # wall/cpu accounting: varies per run
    record.pop("workers", None)  # literal knob; results must not depend on it
    return json.dumps(record, sort_keys=True)


def crash_at_barrier(monkeypatch, k):
    """Make the next run die right after barrier ``k`` (its checkpoint,
    when one is due, is already on disk)."""
    def hook(window_index, handles):
        if window_index == k:
            raise RuntimeError("simulated coordinator crash")
    monkeypatch.setattr(coordinator, "_barrier_hook", hook)


class TestCheckpointWrites:
    def test_checkpointing_is_observationally_free(self, tmp_path):
        scenario = scenario_for()
        plain = run_sharded(scenario, n_regions=2)
        checkpointed = run_sharded(scenario, n_regions=2,
                                   checkpoint_dir=tmp_path)
        assert canonical(checkpointed) == canonical(plain)

    def test_final_manifest_points_at_the_horizon(self, tmp_path):
        """A shard checkpoint is exactly one container file whose header
        meta is the manifest."""
        scenario = scenario_for()
        run_sharded(scenario, n_regions=2, checkpoint_dir=tmp_path)
        assert os.listdir(tmp_path) == [CHECKPOINT_NAME]
        header = read_header(tmp_path / CHECKPOINT_NAME)
        assert header["meta"]["next_t"] == scenario.duration_s
        assert header["meta"]["n_regions"] == 2
        assert header["payload_bytes"] > 0

    def test_checkpoint_every_skips_intermediate_barriers(self, tmp_path):
        """With an interval, state serializes only when a checkpoint is
        due — the scenario has 4 windows, so every-3 writes at window 3
        and at the horizon (always checkpointed)."""
        scenario = scenario_for()
        record = run_sharded(scenario, n_regions=2,
                             checkpoint_dir=tmp_path, checkpoint_every=3)
        transport = record["transport"]
        assert transport["windows"] == 4
        assert transport["checkpoints_written"] == 2
        assert transport["messages"]["checkpoint"] == 4  # 2 regions x 2
        header = read_header(tmp_path / CHECKPOINT_NAME)
        assert header["meta"]["next_t"] == scenario.duration_s

    def test_checkpoint_every_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sharded(scenario_for(), n_regions=2, checkpoint_every=0)

    def test_no_serialization_without_checkpoint_dir(self):
        """The headline property of the resident transport: a plain run
        never packs or unpacks region state."""
        record = run_sharded(scenario_for(), n_regions=2, workers=2)
        transport = record["transport"]
        assert transport["state_bytes"] == {"from_workers": 0,
                                            "to_workers": 0}
        assert "checkpoint" not in transport["messages"]
        assert "load" not in transport["messages"]


class TestResume:
    def test_crash_and_resume_is_byte_identical(self, tmp_path,
                                                monkeypatch):
        """Crash after barrier k, for every k (the last is the horizon:
        the resume runs zero windows), and resume inline and into worker
        processes: packing and unpacking every region at any barrier
        changes nothing."""
        scenario = scenario_for()
        baseline = canonical(run_sharded(scenario, n_regions=2))
        for k in (1, 2, 3, 4):
            crashed = tmp_path / f"barrier{k}"
            crash_at_barrier(monkeypatch, k)
            with pytest.raises(RuntimeError, match="simulated"):
                run_sharded(scenario, n_regions=2, checkpoint_dir=crashed)
            monkeypatch.setattr(coordinator, "_barrier_hook", None)
            header = read_header(crashed / CHECKPOINT_NAME)
            assert header["meta"]["next_t"] == 0.5 * k
            for workers in (1, 2):
                # The resumed run checkpoints too: give each its own copy.
                copy = tmp_path / f"barrier{k}-workers{workers}"
                shutil.copytree(crashed, copy)
                resumed = run_sharded(scenario, n_regions=2,
                                      workers=workers, resume=True,
                                      checkpoint_dir=copy)
                assert resumed["transport"]["windows"] == 4 - k
                assert canonical(resumed) == baseline, (k, workers)

    def test_interval_checkpoint_crash_resume_is_byte_identical(
            self, tmp_path, monkeypatch):
        """checkpoint_every > 1 still resumes byte-identically: the
        crash lands mid-window after an unpersisted barrier, so the
        resume replays from the last interval checkpoint, further back
        in time."""
        scenario = scenario_for()
        baseline = run_sharded(scenario, n_regions=2)

        real = ResidentRegionHost.window
        calls = {"n": 0}

        def crashing(self, t_end, inject):
            calls["n"] += 1
            if calls["n"] > 6:  # window 4 of 4: after the window-3 barrier
                raise RuntimeError("simulated worker crash")
            return real(self, t_end, inject)

        monkeypatch.setattr(ResidentRegionHost, "window", crashing)
        with pytest.raises(RuntimeError, match="simulated worker crash"):
            run_sharded(scenario, n_regions=2, checkpoint_dir=tmp_path,
                        checkpoint_every=2)
        monkeypatch.setattr(ResidentRegionHost, "window", real)

        header = read_header(tmp_path / CHECKPOINT_NAME)
        assert header["meta"]["next_t"] == 1.0  # barrier 2 of 4

        resumed = run_sharded(scenario, n_regions=2,
                              checkpoint_dir=tmp_path, resume=True,
                              checkpoint_every=2)
        assert canonical(resumed) == canonical(baseline)

    def test_crash_before_the_file_replace_keeps_the_previous_checkpoint(
            self, tmp_path, monkeypatch):
        """Regions serialize, then the write dies before os.replace:
        the barrier-1 checkpoint is still whole and resumable, and no
        partial file is left beside it."""
        scenario = scenario_for()
        baseline = run_sharded(scenario, n_regions=2)

        real = os.replace
        calls = {"n": 0}

        def failing(src, dst):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("simulated crash before replace")
            return real(src, dst)

        monkeypatch.setattr(os, "replace", failing)
        with pytest.raises(CheckpointError, match="before replace"):
            run_sharded(scenario, n_regions=2, checkpoint_dir=tmp_path)
        monkeypatch.setattr(os, "replace", real)

        assert os.listdir(tmp_path) == [CHECKPOINT_NAME]
        assert read_header(
            tmp_path / CHECKPOINT_NAME)["meta"]["next_t"] == 0.5
        resumed = run_sharded(scenario, n_regions=2,
                              checkpoint_dir=tmp_path, resume=True)
        assert canonical(resumed) == canonical(baseline)

    @pytest.mark.parametrize("damage", ["truncate", "bitflip"])
    def test_damaged_checkpoint_is_a_checkpoint_error(self, tmp_path,
                                                      damage):
        scenario = scenario_for()
        run_sharded(scenario, n_regions=2, checkpoint_dir=tmp_path)
        path = tmp_path / CHECKPOINT_NAME
        data = bytearray(path.read_bytes())
        if damage == "truncate":
            del data[-100:]
        else:
            data[-100] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            run_sharded(scenario, n_regions=2, checkpoint_dir=tmp_path,
                        resume=True)

    def test_resume_without_manifest_starts_fresh(self, tmp_path):
        scenario = scenario_for()
        baseline = run_sharded(scenario, n_regions=2)
        resumed = run_sharded(scenario, n_regions=2,
                              checkpoint_dir=tmp_path, resume=True)
        assert canonical(resumed) == canonical(baseline)

    def test_resume_needs_a_checkpoint_dir(self):
        with pytest.raises(ValueError):
            run_sharded(scenario_for(), n_regions=2, resume=True)

    def test_mismatched_configuration_refuses_to_resume(self, tmp_path):
        scenario = scenario_for()
        run_sharded(scenario, n_regions=2, checkpoint_dir=tmp_path)
        for other, config in (
                (scenario, {"n_regions": 3}),
                (scenario_for(seed=1), {"n_regions": 2}),
                (scenario, {"n_regions": 2, "window_s": 0.25})):
            with pytest.raises(ValueError, match="different"):
                run_sharded(other, checkpoint_dir=tmp_path, resume=True,
                            **config)

    def test_resume_into_worker_processes(self, tmp_path):
        """A checkpoint written inline resumes into multi-process
        workers byte-identically — the one time the resident transport
        ships state to a worker, visible in the transport accounting."""
        scenario = scenario_for()
        baseline = run_sharded(scenario, n_regions=2)
        record = run_sharded(scenario, n_regions=2,
                             checkpoint_dir=tmp_path, checkpoint_every=2)
        assert canonical(record) == canonical(baseline)
        resumed = run_sharded(scenario, n_regions=2, workers=2,
                              checkpoint_dir=tmp_path, resume=True)
        assert canonical(resumed) == canonical(baseline)
        transport = resumed["transport"]
        assert transport["messages"]["load"] == 2
        assert transport["state_bytes"]["to_workers"] > 0
