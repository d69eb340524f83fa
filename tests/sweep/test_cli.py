"""``python -m repro sweep`` argument parsing and wiring."""

import json

import pytest

from repro import telemetry
from repro.sweep import register_driver
from repro.sweep.cli import sweep_main


@register_driver("clitoy")
def clitoy_driver(seed, params):
    telemetry.metrics().counter("clitoy_runs_total").inc()
    scale = params.get("scale", 1)
    if not isinstance(scale, (int, float)):
        scale = len(str(scale))  # grid axes may carry string values
    return {"scalars": {"value": float(seed % 7) * scale}}


def run_cli(tmp_path, *extra):
    argv = ["clitoy", "--seeds", "0:2", "--out", str(tmp_path),
            "--quiet", *extra]
    code = sweep_main(argv)
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    return code, summary


class TestGridFlag:
    def test_multi_numeric_axis(self, tmp_path):
        # README example: each comma-separated value is its own grid
        # point, not one tuple-valued point.
        code, summary = run_cli(tmp_path, "--grid",
                                "connections_per_bot=50,200,400")
        assert code == 0
        assert summary["spec"]["grid"] == \
            {"connections_per_bot": [50, 200, 400]}
        assert summary["n_tasks"] == 6  # 3 grid points x 2 seeds
        assert len(summary["aggregates"]) == 3

    def test_single_value_axis(self, tmp_path):
        code, summary = run_cli(tmp_path, "--grid", "scale=7")
        assert code == 0
        assert summary["spec"]["grid"] == {"scale": [7]}
        assert summary["n_tasks"] == 2

    def test_string_values(self, tmp_path):
        code, summary = run_cli(tmp_path, "--grid", "mode=fast,slow")
        assert code == 0
        assert summary["spec"]["grid"] == {"mode": ["fast", "slow"]}

    def test_mixed_types_parse_per_piece(self, tmp_path):
        code, summary = run_cli(tmp_path, "--grid", "scale=1,2.5,big")
        assert code == 0
        assert summary["spec"]["grid"] == {"scale": [1, 2.5, "big"]}

    def test_empty_piece_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            sweep_main(["clitoy", "--grid", "scale=1,,2",
                        "--out", str(tmp_path), "--quiet"])


class TestSetFlag:
    def test_values_are_literal_parsed(self, tmp_path):
        code, summary = run_cli(tmp_path, "--set", "scale=3",
                                "--set", "label=x")
        assert code == 0
        assert summary["spec"]["base_params"] == \
            {"scale": 3, "label": "x"}

    def test_missing_equals_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            sweep_main(["clitoy", "--set", "scale",
                        "--out", str(tmp_path), "--quiet"])


class TestSummaryContract:
    def test_wall_clock_families_embedded(self, tmp_path):
        # scripts/check_sweep.py reads the excluded-family list from
        # the summary rather than mirroring the package constant.
        from repro.sweep.runner import WALL_CLOCK_METRICS
        code, summary = run_cli(tmp_path)
        assert code == 0
        assert summary["wall_clock_metrics"] == list(WALL_CLOCK_METRICS)


class TestDriverCheckedFirst:
    @pytest.mark.parametrize("experiment, message", [
        ("nosuch", "no sweep driver named 'nosuch'"),
        ("nomod_for_sweep_cli:fn", "No module named 'nomod_for_sweep_cli'"),
    ])
    def test_unknown_driver_is_a_usage_error_before_out(
            self, tmp_path, capsys, experiment, message):
        # Regression: the sweep created --out, wrote a summary of zero
        # tasks and exited 1 with a FAILED line per task.
        out = tmp_path / "D"
        with pytest.raises(SystemExit) as exit_info:
            sweep_main([experiment, "--seeds", "0:1", "--out", str(out),
                        "--quiet"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("error:") == 1
        assert not out.exists()


class TestSpecCheckedFirst:
    @pytest.mark.parametrize("flags, message", [
        (["--seeds", "0,0"], "duplicate seeds in [0, 0]"),
        (["--seeds", "0:1", "--grid", "duration_s=2,2"],
         "task_id collision"),
        # Regression: a bad figure3 parameter wrote --out and failed
        # every task with exit 1.
        (["--seeds", "0", "--set", "nosuch=1"],
         "figure3 has no parameter(s) ['nosuch']"),
        (["--seeds", "0", "--grid", "duration_s=nan,2"],
         "duration_s must be a finite number of seconds"),
    ])
    def test_malformed_spec_is_a_usage_error_before_out(
            self, tmp_path, capsys, flags, message):
        # Regression: SweepSpec's ValueError escaped as a traceback with
        # exit 1.
        out = tmp_path / "D"
        with pytest.raises(SystemExit) as exit_info:
            sweep_main(["figure3", *flags, "--out", str(out), "--quiet"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("error:") == 1
        assert not out.exists()
