"""Whole-program layer tests: ProjectContext mechanics plus the
fixture *packages* for the cross-module rules (RPL007–RPL010).

Package fixtures follow the same ``# EXPECT: RPLNNN`` contract as the
flat pairs in test_rules.py, except expectations span several files:
every marked line in every module of a ``*_bad`` package must flag, and
the paired ``*_good`` package must be completely clean.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.project import (ProjectContext, UNRESOLVED,
                                module_name_for)

from .test_rules import expected_lines

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parent.parent.parent


def write_tree(root, files):
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


# ----------------------------------------------------------------------
# Module naming
# ----------------------------------------------------------------------

def test_module_names_climb_init_ancestors(tmp_path):
    write_tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/sub/__init__.py": "",
        "src/pkg/sub/mod.py": "",
        "scripts/check_thing.py": "",
    })
    assert module_name_for(
        tmp_path / "src/pkg/sub/mod.py") == ("pkg.sub.mod", False)
    assert module_name_for(
        tmp_path / "src/pkg/sub/__init__.py") == ("pkg.sub", True)
    assert module_name_for(
        tmp_path / "scripts/check_thing.py") == ("check_thing", False)


# ----------------------------------------------------------------------
# Cross-module constant resolution
# ----------------------------------------------------------------------

def test_constants_resolve_through_imports(tmp_path):
    root = write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/timers.py": 'PHASE = "phase_seconds"\n',
        "pkg/runner.py": ("from .timers import PHASE\n"
                          'EXCLUDED = (PHASE, "barrier_seconds")\n'),
    })
    project = ProjectContext.build([str(root / "pkg")])
    assert project.resolve_constant("pkg.runner", "EXCLUDED") == (
        "phase_seconds", "barrier_seconds")
    assert project.resolve_constant("pkg.timers", "PHASE") == \
        "phase_seconds"
    assert project.resolve_constant(
        "pkg.runner", "MISSING") is UNRESOLVED


def test_dynamic_values_stay_unresolved(tmp_path):
    root = write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/dyn.py": ("import os\n"
                       "HOME = os.environ['HOME']\n"
                       "PAIR = (HOME, 'x')\n"),
    })
    project = ProjectContext.build([str(root / "pkg")])
    assert project.resolve_constant("pkg.dyn", "HOME") is UNRESOLVED
    assert project.resolve_constant("pkg.dyn", "PAIR") is UNRESOLVED


# ----------------------------------------------------------------------
# Determinism: identical finding order across repeated runs
# ----------------------------------------------------------------------

def test_finding_order_is_stable_across_builds():
    target = str(FIXTURES / "rpl007_bad")
    runs = [lint_paths([target], select=["RPL007"])
            for _ in range(3)]
    keys = [[(f.path, f.line, f.col, f.rule, f.message)
             for f in run.findings] for run in runs]
    assert keys[0] == keys[1] == keys[2]
    assert keys[0] == sorted(keys[0])
    assert keys[0], "fixture produced no findings to order"


# ----------------------------------------------------------------------
# Fixture packages: every EXPECT-marked line flags, good twins are clean
# ----------------------------------------------------------------------

PACKAGE_CODES = ("RPL007", "RPL010")


def package_expectations(package, code):
    """(display_path, line) -> count, from every module's markers."""
    want = Counter()
    for path in sorted(package.rglob("*.py")):
        for line, count in expected_lines(path.read_text(), code).items():
            want[(path.as_posix(), line)] += count
    return want


@pytest.mark.parametrize("code", PACKAGE_CODES)
def test_bad_package_flags_each_marked_line(code):
    package = FIXTURES / f"{code.lower()}_bad"
    want = package_expectations(package, code)
    assert want, f"{package.name} declares no EXPECT markers"
    result = lint_paths([str(package)], select=[code])
    assert result.parse_errors == []
    got = Counter((f.path, f.line) for f in result.findings)
    assert got == want, (
        f"{package.name}: expected {dict(sorted(want.items()))}, "
        f"got {dict(sorted(got.items()))}")


@pytest.mark.parametrize("code", PACKAGE_CODES)
def test_good_package_is_clean(code):
    package = FIXTURES / f"{code.lower()}_good"
    result = lint_paths([str(package)], select=[code])
    assert result.parse_errors == []
    assert result.findings == [], "\n".join(
        str(f) for f in result.findings)


def test_wall_clock_triplication_regression():
    """The exact PR-8/9 drift: three hand-copied WALL_CLOCK_METRICS
    definitions — every definition site must flag."""
    result = lint_paths([str(FIXTURES / "rpl007_bad")],
                        select=["RPL007"])
    flagged = {Path(f.path).name for f in result.findings}
    assert flagged == {"runner.py", "check_restore_gate.py",
                       "check_sweep_gate.py"}
    assert all("WALL_CLOCK_METRICS" in f.message
               for f in result.findings)

