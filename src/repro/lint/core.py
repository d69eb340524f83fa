"""reprolint core: findings, the rule base, and the lint driver.

The repo's determinism, telemetry, and mutation contracts live in prose
(DESIGN.md) and were twice violated silently before PR 3 fixed them
(an inline ``__import__("random")`` in topology.py, cross-run registry
residue).  This package turns each written-down contract into an
AST-level check so CI fails *at the line that breaks the contract*
instead of at the first nondeterministic sweep three PRs later.

Architecture
------------

* :class:`Finding` — one diagnostic: rule code, path, line, column,
  message.
* :class:`Rule` — one contract.  :meth:`Rule.check` sees the whole
  parsed tree (a :class:`~repro.lint.project.ProjectContext`); by
  default it calls :meth:`Rule.check_file` on every file, and the
  cross-module rules (RPL007, RPL010) override it.  ``exempt_paths``
  carves out the modules that *implement* a contract (e.g.
  ``netsim/links.py`` is the one place allowed to write
  ``Link.capacity_bps``).  :data:`repro.lint.rules.RULES` lists them.
* :func:`lint_paths` — the driver: parse once, run every rule, then
  drop each finding in an exempt path and count each one silenced by a
  ``# reprolint: disable=RPL0xx`` comment on its line (several codes
  may be comma-separated).  Findings come back sorted by (path, line,
  col, rule).

Everything here is stdlib-only (``ast`` + ``tokenize``) by design: the
linter gates CI and must not drag in dependencies.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from .project import ProjectContext, SourceFile


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic, ordered for stable output."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class Rule:
    """Base class: one contract check.

    Subclasses set ``code`` / ``name`` / ``description``, optionally
    ``exempt_paths`` (posix path fragments; findings in a file matching
    any fragment are dropped — these are the modules that *implement*
    the guarded contract), and override :meth:`check_file`, or
    :meth:`check` when the contract spans modules.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    #: Posix path fragments exempt from this rule (contract implementers).
    exempt_paths: Tuple[str, ...] = ()

    def applies(self, path: str) -> bool:
        return not any(fragment in path for fragment in self.exempt_paths)

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for source in project.files:
            yield from self.check_file(project, source)

    def check_file(self, project: ProjectContext,
                   source: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, source: SourceFile, node: ast.AST,
                message: str) -> Finding:
        return Finding(path=source.path,
                       line=getattr(node, "lineno", 0),
                       col=getattr(node, "col_offset", 0),
                       rule=self.code, message=message)


@dataclass
class LintResult:
    """What one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    #: Findings silenced by inline suppressions (count only).
    suppressed: int = 0
    #: Files that failed to parse: (path, message).
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0


def lint_paths(paths: Sequence[str]) -> LintResult:
    """Lint every Python file under ``paths`` as one program.

    Raises ValueError when a path does not exist or no ``.py`` file is
    found: a run that checks nothing must not pass.
    """
    from .rules import RULES
    project = ProjectContext.build(paths)
    by_path = {source.path: source for source in project.files}
    result = LintResult(parse_errors=project.parse_errors,
                        files_checked=len(project.files))
    for rule in RULES:
        for finding in rule.check(project):
            if not rule.applies(finding.path):
                continue
            if by_path[finding.path].suppressed(finding.rule, finding.line):
                result.suppressed += 1
            else:
                result.findings.append(finding)
    result.findings.sort()
    return result
