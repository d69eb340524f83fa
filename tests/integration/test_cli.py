"""Smoke tests for the ``python -m repro`` command-line interface."""

import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

from repro.__main__ import main

#: The exact ``python -m repro figure2`` stdout.
FIGURE2_STDOUT = (
    "Figure 2 — multimode sequence\n"
    "(a) default mode gating at one switch: {'lfa_detector': True, "
    "'reroute': False, 'dropper': False, 'obfuscation': False}\n"
    "(b) detection at t=4.320s; mitigation reached all 8 switches "
    "within 3.6 ms\n"
    "(c) suspicious rerouted 6/6; normal pinned 4/4; forged traceroute "
    "replies 125; policed flows 6\n"
    "(d) attacker rolls: 0; perceived success: True\n"
    "mixed-vector regions: lfa=['sw_denver', 'sw_kansascity', "
    "'sw_losangeles', 'sw_seattle', 'sw_sunnyvale'] ddos=['sw_atlanta', "
    "'sw_chicago', 'sw_houston', 'sw_indianapolis', 'sw_newyork', "
    "'sw_washington'] untouched=0\n"
    "\n")


class TestCli:
    def test_figure3_with_short_horizon(self, capsys):
        assert main(["figure3", "--duration", "12", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "baseline_sdn" in out
        assert "fastflex" in out
        assert "mean under attack" in out

    def test_figure3_too_short_to_reach_the_attack_still_reports(
            self, capsys):
        """Regression: a run ending before the under-attack window
        opened was simulated in full and then died in the summary."""
        assert main(["figure3", "--duration", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "\n    6.0  " in out  # the series is still printed
        assert out.count("no sample fell under attack") == 2
        assert "mean under attack" not in out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "module" in out
        assert "Figure 1d" in out

    def test_figure2(self, capsys):
        # The full report, pinned: it guards the detector thresholds, the
        # reroute and dropper timers and the mode agent's refresh rounds.
        assert main(["figure2"]) == 0
        assert capsys.readouterr().out == FIGURE2_STDOUT

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure9"])

    def test_serve_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve"])
        assert exc.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["figure1", "figure2"])
    @pytest.mark.parametrize("flags", [["--seed", "3"],
                                       ["--duration", "10"],
                                       ["--seed", "3", "--duration", "10"]])
    def test_inapplicable_overrides_rejected(self, experiment, flags,
                                             capsys):
        # --seed/--duration only parameterize figure3; silently ignoring
        # them would report results the flags never influenced.
        with pytest.raises(SystemExit) as exc:
            main([experiment] + flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "only apply to figure3" in err

    def test_overrides_accepted_for_all(self, capsys):
        # 'all' includes figure3, so the overrides do apply there.
        assert main(["all", "--duration", "8", "--seed", "3"]) == 0
        assert "mean under attack" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["figure3", "--duration", "-5"],
        ["figure3", "--duration", "nan"],
        ["figure3", "--duration", "inf"],
        ["all", "--duration", "1e999"]])
    def test_horizon_that_is_not_positive_exits_two(self, argv):
        """Regression: ``-5`` printed an empty series and exited 0, and
        ``nan`` never terminated (hence a subprocess with a timeout);
        nor did ``inf``."""
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro"] + argv, capture_output=True,
            text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 2
        errors = [line for line in done.stderr.splitlines()
                  if "duration_s must be > 0" in line]
        assert len(errors) == 1
        assert done.stdout == ""


class TestRuntimeImports:
    def test_runtime_is_standard_library_only(self):
        """networkx and numpy are test-time dependencies (the routing
        oracles, bench/run.py's fingerprint): nothing under src/ may pull
        them into a process that imports and runs the package."""
        script = (
            "import sys\n"
            "import repro.__main__, repro.experiments.figure3, repro.shard\n"
            "import repro.sweep, repro.checkpoint, repro.lint\n"
            "from repro.experiments.figure3 import Figure3Config, run_both\n"
            "run_both(Figure3Config(duration_s=6.0))\n"
            "print(sorted({'networkx', 'numpy', 'scipy'}"
            " & set(sys.modules)))\n")
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestTelemetryFlags:
    def test_trace_and_metrics_files_written(self, tmp_path, capsys):
        trace_path = tmp_path / "f3.jsonl"
        metrics_path = tmp_path / "f3.json"
        assert main(["figure3", "--duration", "12", "--seed", "3",
                     "--trace", str(trace_path),
                     "--metrics", str(metrics_path)]) == 0
        err = capsys.readouterr().err
        assert "[telemetry]" in err

        events = [json.loads(line)
                  for line in trace_path.read_text().splitlines()]
        assert events
        kinds = {e["kind"] for e in events}
        assert "mode_transition" in kinds
        assert "allocation_pass" in kinds
        assert all("sim_time" in e and "wall_time" in e for e in events)
        # experiment context tag is merged into every event of each run
        assert {e.get("system") for e in events} <= {"baseline_sdn",
                                                     "fastflex"}

        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["fluid_fastpath_hits_total"]["value"] > 0
        assert snapshot["mode_probes_sent_total"]["value"] > 0

    def test_figure3_metrics_carry_per_system_sections(self, tmp_path):
        metrics_path = tmp_path / "f3.json"
        assert main(["figure3", "--duration", "12", "--seed", "3",
                     "--metrics", str(metrics_path)]) == 0
        snapshot = json.loads(metrics_path.read_text())
        per_system = snapshot["per_system"]
        assert set(per_system) == {"baseline_sdn", "fastflex"}
        # Summed totals at the top level, per-system numbers beneath —
        # and they must actually add up.
        total = snapshot["fluid_updates_total"]["value"]
        split = [per_system[name]["fluid_updates_total"]["value"]
                 for name in per_system]
        assert total == sum(split)
        assert all(value > 0 for value in split)

    def test_trace_disabled_after_run(self, tmp_path):
        from repro import telemetry
        assert main(["figure1", "--trace", str(tmp_path / "t.jsonl")]) == 0
        assert telemetry.trace().enabled is False

    def test_metrics_without_trace(self, tmp_path):
        metrics_path = tmp_path / "m.json"
        assert main(["figure1", "--metrics", str(metrics_path)]) == 0
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot  # figure1 is analytic; snapshot may be small


class TestSweepCli:
    def test_sweep_runs_and_writes_summary(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "figure3", "--seeds", "0:2",
                     "--set", "duration_s=10", "--out", str(out),
                     "--quiet"]) == 0
        assert "2 task(s) (2 executed" in capsys.readouterr().out
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["executed"] == 2
        assert len(list((out / "tasks").glob("*.ckpt"))) == 2
        (group,) = summary["aggregates"].values()
        assert group["scalars"]["gap"]["n"] == 2

    def test_sweep_resume_skips_completed(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", "figure3", "--seeds", "0:2",
                "--set", "duration_s=10", "--out", str(out), "--quiet"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        assert "(0 executed, 2 resumed)" in capsys.readouterr().out

    def test_sweep_merged_metrics_file(self, tmp_path):
        metrics_path = tmp_path / "merged.json"
        assert main(["sweep", "figure3", "--seeds", "0:2",
                     "--set", "duration_s=10",
                     "--out", str(tmp_path / "s"),
                     "--metrics", str(metrics_path), "--quiet"]) == 0
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["fluid_updates_total"]["value"] > 0

    def test_sweep_unknown_driver_fails_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "no_such_driver", "--seeds", "0:1",
                  "--out", str(tmp_path / "x"), "--quiet"])
        assert exit_info.value.code == 2
        assert "no sweep driver named" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_sweep_bad_seed_spec_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "figure3", "--seeds", "nope",
                  "--out", str(tmp_path / "x")])


class TestControllerVerificationGate:
    def test_broken_catalog_refused(self, fig2):
        from repro.core import (Booster, DataflowGraph,
                                BoosterVerificationError,
                                FastFlexController)
        from repro.netsim import FlowSet

        class Broken(Booster):
            name = "broken"

            def dataflow(self):
                return DataflowGraph(self.name)  # no PPMs: error finding

        controller = FastFlexController(fig2.topo, [Broken()])
        with pytest.raises(BoosterVerificationError):
            controller.setup(FlowSet(), install_routes=False)

    def test_cyclic_catalog_refused(self, fig2):
        from repro.boosters import logic_ppm
        from repro.core import (Booster, BoosterVerificationError,
                                DataflowGraph, FastFlexController,
                                PpmRole)
        from repro.dataplane import ResourceVector
        from repro.netsim import FlowSet

        class Cyclic(Booster):
            """Deployable mechanically, but fails verification (cycle)."""

            name = "cyclic"

            def dataflow(self):
                graph = DataflowGraph(self.name)
                graph.add_ppm(logic_ppm(self.name, "a", PpmRole.DETECTION,
                                        ResourceVector(stages=1)))
                graph.add_ppm(logic_ppm(self.name, "b",
                                        PpmRole.MITIGATION,
                                        ResourceVector(stages=1)))
                graph.add_edge("a", "b", weight=1)
                graph.add_edge("b", "a", weight=1)
                return graph

        controller = FastFlexController(fig2.topo, [Cyclic()])
        with pytest.raises(BoosterVerificationError):
            controller.setup(FlowSet(), install_routes=False)
