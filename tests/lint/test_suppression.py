"""Suppression directive mechanics: the sanctioned escape hatch."""

from pathlib import Path

from repro.lint import lint_paths

from .test_rules import lint_snippet


def test_line_suppression_silences_exactly_that_rule(tmp_path):
    src = ("import random\n"
           "x = random.random()  # reprolint: disable=RPL001\n")
    result = lint_snippet(tmp_path, src)
    assert result.findings == []
    assert result.suppressed == 1


def test_wrong_code_does_not_suppress(tmp_path):
    src = ("import random\n"
           "x = random.random()  # reprolint: disable=RPL002\n")
    result = lint_snippet(tmp_path, src)
    assert [f.rule for f in result.findings] == ["RPL001"]
    assert result.suppressed == 0


def test_suppression_is_line_scoped(tmp_path):
    src = ("import random\n"
           "a = random.random()  # reprolint: disable=RPL001\n"
           "b = random.random()\n")
    result = lint_snippet(tmp_path, src)
    assert [(f.rule, f.line) for f in result.findings] == [("RPL001", 3)]
    assert result.suppressed == 1


def test_suppression_silences_only_one_rule_on_a_shared_line(tmp_path):
    # One line violating two rules; suppressing one leaves the other.
    src = ("import random\n"
           "import time\n"
           "x = [random.random(), time.time()]"
           "  # reprolint: disable=RPL002\n")
    result = lint_snippet(tmp_path, src)
    assert [f.rule for f in result.findings] == ["RPL001"]
    assert result.suppressed == 1


def test_comma_separated_codes_suppress_both(tmp_path):
    src = ("import random\n"
           "import time\n"
           "x = [random.random(), time.time()]"
           "  # reprolint: disable=RPL001, RPL002\n")
    result = lint_snippet(tmp_path, src)
    assert result.findings == []
    assert result.suppressed == 2


def test_directive_inside_string_literal_is_inert(tmp_path):
    src = ("import random\n"
           'a = (random.random(), "# reprolint: disable=RPL001")\n')
    result = lint_snippet(tmp_path, src)
    assert [f.rule for f in result.findings] == ["RPL001"]
    assert result.suppressed == 0


def test_project_findings_honour_the_same_suppressions(tmp_path):
    """A cross-module rule's finding is filtered exactly like a
    per-file one: by the comment on the line it lands on."""
    (tmp_path / "a.py").write_text(
        'PAIR = ("x", "y")  # reprolint: disable=RPL007\n')
    (tmp_path / "b.py").write_text('PAIR = ("x", "y")\n')
    result = lint_paths([str(tmp_path)])
    assert [(Path(f.path).name, f.rule) for f in result.findings] == [
        ("b.py", "RPL007")]
    assert result.suppressed == 1
