"""The sweep runner: checkpoints, resume, isolation, worker parity."""

import json

import pytest

from repro import telemetry
from repro.checkpoint.format import read_header
from repro.sweep import (SweepSpec, register_driver, run_sweep,
                        stable_metrics)
from repro.sweep.runner import TASK_DIR


@register_driver("toy")
def toy_driver(seed, params):
    """Deterministic toy workload that exercises telemetry."""
    scale = params.get("scale", 1)
    telemetry.metrics().counter("toy_work_total").inc(seed % 97)
    telemetry.metrics().counter(
        "toy_runs_total", labelnames=("scale",)).labels(str(scale)).inc()
    return {
        "scalars": {"value": (seed % 97) * scale},
        "series": {"ramp": [[0.0, 0.0], [1.0, float(scale)]]},
    }


@register_driver("flaky")
def flaky_driver(seed, params):
    if seed == params.get("fail_seed"):
        raise RuntimeError("boom")
    return {"scalars": {"value": 1.0}}


def toy_spec(**kwargs):
    defaults = dict(experiment="toy", seeds=[0, 1, 2],
                    base_params={"scale": 2}, raw_seeds=True)
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestCheckpoints:
    def test_one_checkpoint_per_task(self, tmp_path):
        result = run_sweep(toy_spec(), out_dir=tmp_path)
        files = sorted((tmp_path / TASK_DIR).glob("*.ckpt"))
        assert len(files) == 3
        ids = {read_header(f)["meta"]["task_id"] for f in files}
        assert ids == {r["task_id"] for r in result.records}

    def test_summary_written(self, tmp_path):
        run_sweep(toy_spec(), out_dir=tmp_path)
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["executed"] == 3
        assert summary["spec"]["experiment"] == "toy"
        assert summary["aggregates"]

    def test_records_json_round_trip(self, tmp_path):
        result = run_sweep(toy_spec(), out_dir=tmp_path)
        for record in result.records:
            assert record["metrics"]["toy_work_total"]["kind"] == "counter"

    def test_no_out_dir_is_fine(self):
        result = run_sweep(toy_spec())
        assert result.executed == 3
        assert result.out_dir is None


class TestResume:
    def test_resume_skips_completed(self, tmp_path):
        first = run_sweep(toy_spec(), out_dir=tmp_path)
        second = run_sweep(toy_spec(), out_dir=tmp_path, resume=True)
        assert second.executed == 0
        assert second.skipped == 3
        assert second.aggregates == first.aggregates
        assert stable_metrics(second.merged_metrics) == \
            stable_metrics(first.merged_metrics)

    def test_resume_reruns_only_missing(self, tmp_path):
        result = run_sweep(toy_spec(), out_dir=tmp_path)
        victim = (tmp_path / TASK_DIR
                  / f"{result.records[1]['task_id']}.ckpt")
        victim.unlink()
        second = run_sweep(toy_spec(), out_dir=tmp_path, resume=True)
        assert second.executed == 1
        assert second.skipped == 2

    def test_resume_reruns_corrupt_checkpoint(self, tmp_path):
        result = run_sweep(toy_spec(), out_dir=tmp_path)
        victim = (tmp_path / TASK_DIR
                  / f"{result.records[0]['task_id']}.ckpt")
        victim.write_text("{ truncated by a crash")
        second = run_sweep(toy_spec(), out_dir=tmp_path, resume=True)
        assert second.executed == 1
        assert second.skipped == 2

    def test_resume_reruns_a_record_with_one_changed_digit(self, tmp_path):
        """Bit rot that leaves valid JSON behind must not be trusted:
        the tampered task re-runs and the aggregates come out right."""
        first = run_sweep(toy_spec(), out_dir=tmp_path)
        task_id = first.records[1]["task_id"]
        (victim,) = (tmp_path / TASK_DIR).glob(f"{task_id}.*")
        raw = bytearray(victim.read_bytes())
        at = raw.index(b'"value": ', raw.index(b'"scalars"')) + 9
        assert raw[at:at + 2] == b"2\n"  # seed 1 x scale 2
        raw[at] = ord("9")
        victim.write_bytes(bytes(raw))
        second = run_sweep(toy_spec(), out_dir=tmp_path, resume=True)
        assert second.executed == 1
        assert second.skipped == 2
        assert second.aggregates == first.aggregates

    @pytest.mark.parametrize("damage", ["truncated", "another_task"])
    def test_resume_reruns_an_untrusted_container(self, tmp_path, damage):
        """A truncated container fails verification; a whole one copied
        from another task verifies but names the wrong task."""
        result = run_sweep(toy_spec(), out_dir=tmp_path)
        other, victim = (tmp_path / TASK_DIR / f"{r['task_id']}.ckpt"
                         for r in result.records[:2])
        victim.write_bytes(other.read_bytes() if damage == "another_task"
                           else victim.read_bytes()[:-40])
        second = run_sweep(toy_spec(), out_dir=tmp_path, resume=True)
        assert second.executed == 1
        assert second.skipped == 2

    def test_resume_rejects_other_specs_checkpoints(self, tmp_path):
        run_sweep(toy_spec(), out_dir=tmp_path)
        # Same experiment and seeds, different params: same task ids
        # would collide, but fingerprints differ -> full re-run.
        changed = toy_spec(base_params={"scale": 2, "extra": 1})
        second = run_sweep(changed, out_dir=tmp_path, resume=True)
        assert second.skipped == 0
        assert second.executed == 3

    def test_non_resume_overwrites(self, tmp_path):
        run_sweep(toy_spec(), out_dir=tmp_path)
        second = run_sweep(toy_spec(), out_dir=tmp_path, resume=False)
        assert second.executed == 3
        assert second.skipped == 0


class TestTelemetryIsolation:
    def test_each_task_snapshot_is_isolated(self, tmp_path):
        result = run_sweep(toy_spec(seeds=[5, 11]), out_dir=tmp_path)
        by_seed = {r["logical_seed"]: r for r in result.records}
        assert by_seed[5]["metrics"]["toy_work_total"]["value"] == 5
        assert by_seed[11]["metrics"]["toy_work_total"]["value"] == 11

    def test_merged_metrics_sum_tasks(self, tmp_path):
        result = run_sweep(toy_spec(seeds=[5, 11]), out_dir=tmp_path)
        merged = result.merged_metrics
        assert merged["toy_work_total"]["value"] == 16
        assert merged["toy_runs_total"]["labels"]["2"] == 2

    def test_errors_recorded_not_raised(self):
        spec = SweepSpec(experiment="flaky", seeds=[0, 1, 2],
                         base_params={"fail_seed": 1}, raw_seeds=True)
        result = run_sweep(spec)
        assert not result.ok
        assert len(result.errors) == 1
        assert "boom" in result.errors[0]["error"]
        assert len(result.records) == 2


class TestFigure3Drivers:
    @pytest.mark.parametrize("experiment", [
        "figure3", "figure3_baseline", "figure3_fastflex"])
    def test_run_ending_before_the_attack_window_omits_its_scalars(
            self, experiment):
        """Regression: a 6 s run ends before the attack window [7, 6)
        opens; the driver simulated it and then raised summarizing it."""
        result = run_sweep(SweepSpec(experiment=experiment, seeds=[0],
                                     base_params={"duration_s": 6.0}))
        assert result.ok, result.errors
        (record,) = result.records
        scalars = record["result"]["scalars"]
        assert not [name for name in scalars
                    if name.endswith("_during_attack") or name == "gap"]
        assert any(name.endswith("_attacker_rolls") for name in scalars)


class TestWorkerParity:
    """The acceptance criterion in miniature: sharded == inline."""

    SPEC = dict(experiment="figure3", seeds=[0, 1],
                base_params={"duration_s": 10.0})

    def test_pool_matches_inline(self, tmp_path):
        inline = run_sweep(SweepSpec(**self.SPEC),
                           out_dir=tmp_path / "inline", workers=1)
        pooled = run_sweep(SweepSpec(**self.SPEC),
                           out_dir=tmp_path / "pooled", workers=2)
        assert inline.aggregates == pooled.aggregates
        assert stable_metrics(inline.merged_metrics) == \
            stable_metrics(pooled.merged_metrics)
        # Per-seed series, not just aggregates.
        for a, b in zip(inline.records, pooled.records):
            assert a["task_id"] == b["task_id"]
            assert a["seed"] == b["seed"]
            assert a["result"]["series"] == b["result"]["series"]
