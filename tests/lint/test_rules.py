"""Fixture-driven rule tests.

Every ``*_bad.py`` fixture line carrying an ``# EXPECT: RPLNNN`` marker
must produce exactly that finding at exactly that line (a marker may
list a code twice for lines that violate a rule twice, e.g. tuple
unpacking onto two guarded fields).  The paired ``*_good.py`` fixture
— the corrected version of the same code — must be completely clean
under the same rule.  Snippets and fixtures are written to files and
linted through :func:`~repro.lint.lint_paths`, the one driver.
"""

from collections import Counter
from pathlib import Path
import re

import pytest

from repro.lint import lint_paths
from repro.lint.rules import RULES

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


def lint_snippet(tmp_path, source, relative="snippet.py"):
    """Write ``source`` to ``tmp_path/relative`` and lint that file."""
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_paths([str(path)])


def only(result, code):
    return [f for f in result.findings if f.rule == code]


#: Rules whose contract spans modules; their fixtures are *packages*
#: under fixtures/ (exercised by tests/lint/test_project.py) rather
#: than single-file pairs.
PROJECT_CODES = ("RPL007", "RPL010")
PER_FILE_CODES = tuple(rule.code for rule in RULES
                       if rule.code not in PROJECT_CODES)


def lint_fixture(tmp_path, path):
    """Lint a copy of a flat fixture.  RPL009 covers ``shard/`` and
    ``sweep/`` by path alone, so its pair is copied under ``shard/``."""
    relative = f"shard/{path.name}" if path.name.startswith("rpl009_") \
        else path.name
    return lint_snippet(tmp_path, path.read_text(), relative)


def test_all_nine_rules_are_registered():
    codes = [rule.code for rule in RULES]
    assert all(re.fullmatch(r"RPL\d{3}", code) for code in codes)
    assert len(set(codes)) == len(codes)
    assert codes == ["RPL001", "RPL002", "RPL003", "RPL004", "RPL005",
                     "RPL006", "RPL007", "RPL009", "RPL010"]


@pytest.mark.parametrize("code", PER_FILE_CODES)
def test_every_per_file_rule_has_fixture_pair(code):
    assert (FIXTURES / f"{code.lower()}_bad.py").is_file()
    assert (FIXTURES / f"{code.lower()}_good.py").is_file()


@pytest.mark.parametrize("code", PROJECT_CODES)
def test_every_project_rule_has_fixture_packages(code):
    assert (FIXTURES / f"{code.lower()}_bad").is_dir()
    assert (FIXTURES / f"{code.lower()}_good").is_dir()


@pytest.mark.parametrize("code", PER_FILE_CODES)
def test_bad_fixture_flags_each_marked_line(code, tmp_path):
    path = FIXTURES / f"{code.lower()}_bad.py"
    want = expected_lines(path.read_text(), code)
    assert want, f"{path.name} declares no EXPECT markers"
    result = lint_fixture(tmp_path, path)
    assert result.parse_errors == []
    got = Counter(f.line for f in only(result, code))
    assert got == want, (
        f"{path.name}: expected findings at {dict(sorted(want.items()))}, "
        f"got {dict(sorted(got.items()))}")


@pytest.mark.parametrize("code", PER_FILE_CODES)
def test_good_fixture_is_clean(code, tmp_path):
    result = lint_fixture(tmp_path, FIXTURES / f"{code.lower()}_good.py")
    assert result.parse_errors == []
    assert only(result, code) == [], "\n".join(
        str(f) for f in result.findings)


# ----------------------------------------------------------------------
# Regression pins for the exact bug class that motivated RPL001: the
# PR 3 topology.py `__import__("random")` and unseeded Random().
# ----------------------------------------------------------------------

def test_dunder_import_random_is_flagged(tmp_path):
    result = lint_snippet(tmp_path, 'rng = __import__("random")\n')
    assert [(f.rule, f.line) for f in result.findings] == [("RPL001", 1)]


def test_unseeded_random_instance_is_flagged(tmp_path):
    result = lint_snippet(tmp_path,
                          "import random\nstream = random.Random()\n")
    assert [(f.rule, f.line) for f in result.findings] == [("RPL001", 2)]


def test_seeded_random_instance_is_clean(tmp_path):
    result = lint_snippet(tmp_path,
                          "import random\nstream = random.Random(7)\n")
    assert result.findings == []


def test_import_alias_is_resolved(tmp_path):
    result = lint_snippet(tmp_path,
                          "import random as rnd\nx = rnd.random()\n")
    assert [(f.rule, f.line) for f in result.findings] == [("RPL001", 2)]


def test_from_import_is_resolved(tmp_path):
    result = lint_snippet(tmp_path,
                          "from random import random\nx = random()\n")
    assert [(f.rule, f.line) for f in result.findings] == [("RPL001", 2)]


# ----------------------------------------------------------------------
# Rule-level mechanics that deserve pins beyond the fixture pairs.
# ----------------------------------------------------------------------

def test_rpl002_exempts_telemetry_package(tmp_path):
    source = "import time\nstamp = time.time()\n"
    inside = lint_snippet(tmp_path, source,
                          "src/repro/telemetry/timers.py")
    outside = lint_snippet(tmp_path, source, "src/repro/core/engine.py")
    assert inside.findings == []
    assert [(f.rule, f.line) for f in outside.findings] == [("RPL002", 2)]


def test_rpl003_exempts_contract_implementers(tmp_path):
    source = "def f(link):\n    link.capacity_bps = 1\n"
    inside = lint_snippet(tmp_path, source, "src/repro/netsim/links.py")
    outside = lint_snippet(tmp_path, source, "src/repro/boosters/x.py")
    assert inside.findings == []
    assert [(f.rule, f.line) for f in outside.findings] == [("RPL003", 2)]


def test_rpl009_is_scoped_by_path_alone(tmp_path):
    """A docstring naming fsum does not opt a module in; only a
    ``shard/`` or ``sweep/`` path does."""
    source = '"""Folds with math.fsum."""\ntotal = sum(samples)\n'
    inside = lint_snippet(tmp_path, source, "src/repro/sweep/x.py")
    outside = lint_snippet(tmp_path, source, "src/repro/core/x.py")
    assert [(f.rule, f.line) for f in inside.findings] == [("RPL009", 2)]
    assert outside.findings == []


def test_findings_are_sorted_and_stable(tmp_path):
    source = ("import random\n"
              "b = random.random()\n"
              "assert b\n"
              "a = random.random()\n")
    result = lint_snippet(tmp_path, source)
    keys = [(f.path, f.line, f.col, f.rule) for f in result.findings]
    assert keys == sorted(keys)
    assert [f.rule for f in result.findings] == ["RPL001", "RPL005",
                                                 "RPL001"]
