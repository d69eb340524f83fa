"""``python -m repro shard``: flag and scenario validation, and the
one-region anchor."""

from __future__ import annotations

import pytest

from repro.shard.cli import shard_main
from repro.shard.coordinator import CHECKPOINT_NAME

SHORT = ["--duration", "2"]


def usage_error(capsys, argv):
    """Run the CLI expecting argparse's exit 2; returns its stderr."""
    with pytest.raises(SystemExit) as exit_info:
        shard_main(argv)
    assert exit_info.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--regions", "0"], "n_regions must be >= 1"),
    (["--workers", "0"], "workers must be >= 1"),
    (["--window", "-1"], "window_s must be positive"),
    (["--checkpoint-every", "0"], "checkpoint_every must be >= 1"),
    (["--scenario", "random", "--switches", "0"], "n_switches must be >= 1"),
    (["--scenario", "random", "--hosts", "0"], "n_hosts must be >= 1"),
    (["--scenario", "random", "--flows", "-3"], "n_flows must be >= 0"),
    (["--duration", "-1"], "duration_s must be finite and > 0"),
    (["--duration", "0"], "duration_s must be finite and > 0"),
    (["--duration", "nan"], "duration_s must be finite and > 0"),
    (["--scenario", "random", "--duration", "0"],
     "duration_s must be finite and > 0"),
    # Regression: a NaN window never advanced t, so the run hung.
    (["--window", "nan"], "window_s must be positive and finite"),
    (["--window", "inf"], "window_s must be positive and finite"),
    # Regression: these were silently ignored outside the random scenario.
    (["--switches", "10"], "--switches: only apply to --scenario random"),
    (["--switches", "10", "--hosts", "4", "--flows", "5"],
     "--switches, --hosts, --flows: only apply to --scenario random"),
    (["--scenario", "figure3", "--flows", "5"],
     "--flows: only apply to --scenario random"),
])
def test_bad_flag_is_a_usage_error_not_a_traceback(capsys, flags, message):
    # A later --duration overrides SHORT's.
    err = usage_error(capsys, SHORT + flags)
    assert f"error: {message}" in err
    assert err.count("error:") == 1
    assert "Traceback" not in err


def test_resume_under_a_different_configuration_is_a_usage_error(
        capsys, tmp_path):
    checkpoint = ["--checkpoint", str(tmp_path)]
    assert shard_main(SHORT + ["--regions", "2"] + checkpoint) == 0
    err = usage_error(capsys, SHORT + ["--regions", "3", "--resume"]
                      + checkpoint)
    assert "different shard configuration" in err


def test_resume_from_a_corrupt_checkpoint_is_a_usage_error(
        capsys, tmp_path):
    """Regression: one flipped bit in shard.ckpt ended in a
    CheckpointError traceback and exit 1."""
    checkpoint = ["--checkpoint", str(tmp_path)]
    assert shard_main(SHORT + checkpoint) == 0
    path = tmp_path / CHECKPOINT_NAME
    data = bytearray(path.read_bytes())
    data[-100] ^= 0x01
    path.write_bytes(bytes(data))
    err = usage_error(capsys, SHORT + ["--resume"] + checkpoint)
    assert "fingerprint mismatch" in err
    assert err.count("error:") == 1
    assert "Traceback" not in err


def test_one_region_compare_is_byte_identical(capsys):
    assert shard_main(SHORT + ["--regions", "1", "--compare"]) == 0
    assert "byte-identical" in capsys.readouterr().out
