"""End-to-end tests of ``python -m repro.lint`` via subprocess."""

import json
import os
from pathlib import Path
import subprocess
import sys

REPO = Path(__file__).resolve().parents[2]

DIRTY = "import random\na = random.random()\n"


def run_lint(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        capture_output=True, text=True, env=env, cwd=str(REPO))


def test_clean_file_exits_zero(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    proc = run_lint(str(target))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s) in 1 file(s)" in proc.stdout


def test_violation_exits_one_and_names_rule_and_line(tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    proc = run_lint(str(target))
    assert proc.returncode == 1
    assert "RPL001" in proc.stdout
    assert f"{target.as_posix()}:2:" in proc.stdout


def test_syntax_error_exits_one(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n")
    proc = run_lint(str(target))
    assert proc.returncode == 1
    assert "parse error" in proc.stderr


def test_json_output_round_trips_and_is_stable(tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    proc = run_lint(str(target), "--json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["files_checked"] == 1
    assert payload["parse_errors"] == []
    assert [f["rule"] for f in payload["findings"]] == ["RPL001"]
    assert payload["findings"][0]["line"] == 2
    # Byte-identical across invocations: sorted keys, sorted findings.
    proc2 = run_lint(str(target), "--json")
    assert proc.stdout == proc2.stdout


def test_select_runs_only_named_rules(tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text("import random\nassert random.random()\n")
    proc = run_lint(str(target), "--select", "RPL005")
    assert proc.returncode == 1
    assert "RPL005" in proc.stdout
    assert "RPL001" not in proc.stdout


def test_ignore_skips_named_rules(tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text("import random\nassert random.random()\n")
    proc = run_lint(str(target), "--ignore", "RPL001,RPL005")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_unknown_rule_code_exits_two(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    proc = run_lint(str(target), "--select", "RPL999")
    assert proc.returncode == 2
    assert "RPL999" in proc.stderr


def test_list_rules_names_all_nine():
    proc = run_lint("--list-rules")
    assert proc.returncode == 0
    for code in ("RPL001", "RPL002", "RPL003", "RPL004", "RPL005",
                 "RPL006", "RPL007", "RPL009", "RPL010"):
        assert code in proc.stdout


def test_project_rules_run_on_single_file_arguments(tmp_path):
    (tmp_path / "a.py").write_text('PAIR = ("x", "y")\n')
    (tmp_path / "b.py").write_text('PAIR = ("x", "y")\n')
    proc = run_lint(str(tmp_path / "a.py"), str(tmp_path / "b.py"),
                    "--select", "RPL007", "--json")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert [f["rule"] for f in payload["findings"]] == ["RPL007",
                                                        "RPL007"]
