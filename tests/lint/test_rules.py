"""Fixture-driven rule tests.

Every ``*_bad.py`` fixture line carrying an ``# EXPECT: RPLNNN`` marker
must produce exactly that finding at exactly that line (a marker may
list a code twice for lines that violate a rule twice, e.g. tuple
unpacking onto two guarded fields).  The paired ``*_good.py`` fixture
— the corrected version of the same code — must be completely clean
under the same rule.
"""

from collections import Counter
from pathlib import Path
import re

import pytest

from repro.lint import lint_source, rule_codes

FIXTURES = Path(__file__).parent / "fixtures"
_EXPECT = re.compile(
    r"#\s*EXPECT:\s*([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)")


def expected_lines(source: str, code: str) -> Counter:
    """line -> how many findings of ``code`` the fixture declares."""
    expect: Counter = Counter()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _EXPECT.search(line)
        if match is None:
            continue
        for marked in match.group(1).split(","):
            if marked.strip() == code:
                expect[lineno] += 1
    return expect


#: Rules whose contract spans modules; their fixtures are *packages*
#: under fixtures/ (exercised by tests/lint/test_project.py) rather
#: than single-file pairs.
PROJECT_CODES = ("RPL007", "RPL010")
PER_FILE_CODES = tuple(code for code in rule_codes()
                       if code not in PROJECT_CODES)


def display_path(path: Path) -> str:
    """Where a flat fixture is linted as living.  RPL009 covers
    ``shard/`` and ``sweep/`` by path alone, so its pair is linted as
    if it sat under ``shard/``."""
    if path.name.startswith("rpl009_"):
        path = path.parent / "shard" / path.name
    return path.as_posix()


def test_all_nine_rules_are_registered():
    assert rule_codes() == ["RPL001", "RPL002", "RPL003", "RPL004",
                            "RPL005", "RPL006", "RPL007", "RPL009",
                            "RPL010"]


@pytest.mark.parametrize("code", PER_FILE_CODES)
def test_every_per_file_rule_has_fixture_pair(code):
    assert (FIXTURES / f"{code.lower()}_bad.py").is_file()
    assert (FIXTURES / f"{code.lower()}_good.py").is_file()


@pytest.mark.parametrize("code", PROJECT_CODES)
def test_every_project_rule_has_fixture_packages(code):
    assert (FIXTURES / f"{code.lower()}_bad").is_dir()
    assert (FIXTURES / f"{code.lower()}_good").is_dir()


@pytest.mark.parametrize("code", PER_FILE_CODES)
def test_bad_fixture_flags_each_marked_line(code):
    path = FIXTURES / f"{code.lower()}_bad.py"
    source = path.read_text()
    want = expected_lines(source, code)
    assert want, f"{path.name} declares no EXPECT markers"
    result = lint_source(source, display_path=display_path(path),
                         select=[code])
    assert result.parse_errors == []
    assert all(f.rule == code for f in result.findings)
    got = Counter(f.line for f in result.findings)
    assert got == want, (
        f"{path.name}: expected findings at {dict(sorted(want.items()))}, "
        f"got {dict(sorted(got.items()))}")


@pytest.mark.parametrize("code", PER_FILE_CODES)
def test_good_fixture_is_clean(code):
    path = FIXTURES / f"{code.lower()}_good.py"
    result = lint_source(path.read_text(), display_path=display_path(path),
                         select=[code])
    assert result.parse_errors == []
    assert result.findings == [], "\n".join(
        str(f) for f in result.findings)


# ----------------------------------------------------------------------
# Regression pins for the exact bug class that motivated RPL001: the
# PR 3 topology.py `__import__("random")` and unseeded Random().
# ----------------------------------------------------------------------

def test_dunder_import_random_is_flagged():
    result = lint_source('rng = __import__("random")\n',
                         select=["RPL001"])
    assert [(f.rule, f.line) for f in result.findings] == [("RPL001", 1)]


def test_unseeded_random_instance_is_flagged():
    result = lint_source("import random\nstream = random.Random()\n",
                         select=["RPL001"])
    assert [(f.rule, f.line) for f in result.findings] == [("RPL001", 2)]


def test_seeded_random_instance_is_clean():
    result = lint_source("import random\nstream = random.Random(7)\n",
                         select=["RPL001"])
    assert result.findings == []


def test_import_alias_is_resolved():
    result = lint_source("import random as rnd\nx = rnd.random()\n",
                         select=["RPL001"])
    assert [(f.rule, f.line) for f in result.findings] == [("RPL001", 2)]


def test_from_import_is_resolved():
    result = lint_source("from random import random\nx = random()\n",
                         select=["RPL001"])
    assert [(f.rule, f.line) for f in result.findings] == [("RPL001", 2)]


# ----------------------------------------------------------------------
# Rule-level mechanics that deserve pins beyond the fixture pairs.
# ----------------------------------------------------------------------

def test_rpl002_exempts_telemetry_package():
    source = "import time\nstamp = time.time()\n"
    inside = lint_source(source,
                         display_path="src/repro/telemetry/timers.py",
                         select=["RPL002"])
    outside = lint_source(source,
                          display_path="src/repro/core/engine.py",
                          select=["RPL002"])
    assert inside.findings == []
    assert [f.line for f in outside.findings] == [2]


def test_rpl003_exempts_contract_implementers():
    source = "def f(link):\n    link.capacity_bps = 1\n"
    inside = lint_source(source,
                         display_path="src/repro/netsim/links.py",
                         select=["RPL003"])
    outside = lint_source(source,
                          display_path="src/repro/boosters/x.py",
                          select=["RPL003"])
    assert inside.findings == []
    assert [f.line for f in outside.findings] == [2]


def test_rpl009_is_scoped_by_path_alone():
    """A docstring naming fsum does not opt a module in; only a
    ``shard/`` or ``sweep/`` path does."""
    source = '"""Folds with math.fsum."""\ntotal = sum(samples)\n'
    inside = lint_source(source, display_path="src/repro/sweep/x.py",
                         select=["RPL009"])
    outside = lint_source(source, display_path="src/repro/core/x.py",
                          select=["RPL009"])
    assert [f.line for f in inside.findings] == [2]
    assert outside.findings == []


def test_findings_are_sorted_and_stable():
    source = ("import random\n"
              "b = random.random()\n"
              "assert b\n"
              "a = random.random()\n")
    result = lint_source(source)
    keys = [(f.path, f.line, f.col, f.rule) for f in result.findings]
    assert keys == sorted(keys)
    assert [f.rule for f in result.findings] == ["RPL001", "RPL005",
                                                 "RPL001"]
