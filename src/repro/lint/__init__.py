"""reprolint: AST-based enforcement of the repo's determinism, telemetry,
and mutation contracts.

Usage::

    python -m repro.lint [paths] [--json]

See :mod:`repro.lint.core` for the rule base and the driver,
:mod:`repro.lint.project` for the parsed tree (module names, imports,
suppressions and the symbol table), :mod:`repro.lint.rules` for the
rule table, and DESIGN.md "Enforced invariants" for what each rule
guards.
"""

from .core import Finding, LintResult, Rule, lint_paths
from .project import ProjectContext, SourceFile

__all__ = ["Finding", "LintResult", "ProjectContext", "Rule",
           "SourceFile", "lint_paths"]
