"""reprolint: AST-based enforcement of the repo's determinism, telemetry,
and mutation contracts.

Usage::

    python -m repro.lint [paths] [--json]
                         [--select RPL001,...] [--ignore RPL005]

See :mod:`repro.lint.core` for the per-file framework and the
:class:`ProjectRule` API, :mod:`repro.lint.project` for the
whole-program layer (module names and the symbol table),
:mod:`repro.lint.rules` for the individual contracts, and DESIGN.md
"Enforced invariants" for the rule table.
"""

from .core import (Finding, FileContext, LintResult, ProjectRule, Rule,
                   all_rules, lint_paths, lint_source, register,
                   rule_codes, select_rules)
from .project import ProjectContext, ProjectFile

__all__ = [
    "FileContext", "Finding", "LintResult", "ProjectContext",
    "ProjectFile", "ProjectRule", "Rule", "all_rules", "lint_paths",
    "lint_source", "register", "rule_codes", "select_rules",
]
