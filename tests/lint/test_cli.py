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


def test_missing_path_exits_two(tmp_path):
    """A typo in the gate's paths must fail loudly, not check nothing."""
    proc = run_lint(str(tmp_path / "no_such_dir"))
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and "no_such_dir" in errors[0]
    assert proc.stdout == ""


def test_run_without_python_files_exits_two(tmp_path):
    notes = tmp_path / "README.md"
    notes.write_text("# notes\n")
    for target in (notes, tmp_path):
        proc = run_lint(str(target))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert [line for line in proc.stderr.splitlines()
                if line.startswith("error:")] == [
            f"error: no .py file under {target}"]


def test_project_rules_run_on_single_file_arguments(tmp_path):
    (tmp_path / "a.py").write_text('PAIR = ("x", "y")\n')
    (tmp_path / "b.py").write_text('PAIR = ("x", "y")\n')
    proc = run_lint(str(tmp_path / "a.py"), str(tmp_path / "b.py"),
                    "--json")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert [f["rule"] for f in payload["findings"]] == ["RPL007",
                                                        "RPL007"]
