"""The repo's own src + scripts trees must be lint-clean — per-file
rules *and* the cross-module contracts."""

from pathlib import Path

from repro.lint import lint_paths

REPO = Path(__file__).resolve().parents[2]


def test_src_tree_has_no_findings():
    result = lint_paths([str(REPO / "src")])
    assert result.parse_errors == []
    assert result.findings == [], (
        "reprolint findings in src (fix them or suppress inline with a "
        "justification):\n" + "\n".join(str(f) for f in result.findings))


def test_full_tree_is_clean_in_project_mode():
    """What CI runs: `python -m repro.lint src scripts` — the per-file
    rules plus the cross-module contracts (RPL007–RPL010)."""
    result = lint_paths([str(REPO / "src"), str(REPO / "scripts")])
    assert result.parse_errors == []
    assert result.findings == [], (
        "reprolint findings in src/scripts (fix them or suppress "
        "inline with a justification):\n"
        + "\n".join(str(f) for f in result.findings))


def test_src_tree_was_actually_scanned():
    result = lint_paths([str(REPO / "src")])
    # Guard against a silent no-op (e.g. a broken path glob): the tree
    # has dozens of modules and a handful of justified suppressions.
    assert result.files_checked > 50
    assert result.suppressed >= 4
