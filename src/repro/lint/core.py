"""reprolint core: findings, rules, suppressions, and the lint driver.

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
* :class:`Rule` — a check over one parsed file.  Rules self-register via
  the :func:`register` decorator; ``exempt_paths`` carves out the
  modules that *implement* a contract (e.g. ``netsim/links.py`` is the
  one place allowed to write ``Link.capacity_bps``).
* :class:`ProjectRule` — a check over the *whole parsed tree* (a
  :class:`~repro.lint.project.ProjectContext`): cross-module contracts
  like duplicated constants or checkpoint-globals coverage that no
  single file can witness.  They see exactly the files passed to
  :func:`lint_paths`: the paths you lint decide what a contract covers.
* :class:`FileContext` — parsed source plus the suppression table
  extracted from ``# reprolint: disable=RPL0xx`` comments.
* :func:`lint_paths` / :func:`lint_source` — the drivers; both return a
  :class:`LintResult` with findings sorted by (path, line, col, rule).
  Inline suppressions and ``exempt_paths`` apply to project findings
  exactly as to per-file ones (resolved through the finding's file).

Suppression syntax (the sanctioned escape hatch; see DESIGN.md
"Enforced invariants"):

* ``# reprolint: disable=RPL002`` on a line silences exactly that rule
  on exactly that line (several codes may be comma-separated).
* ``# reprolint: disable-file=RPL002`` anywhere in a file silences the
  rule for the whole file.

Everything here is stdlib-only (``ast`` + ``tokenize``) by design: the
linter gates CI and must not drag in dependencies.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
import io
from pathlib import Path
import re
import tokenize
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple, Type)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .project import ProjectContext

_DIRECTIVE = re.compile(
    r"#\s*reprolint:\s*(disable(?:-file)?)\s*=\s*([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)")
_CODE_FORMAT = re.compile(r"^RPL\d{3}$")


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


class FileContext:
    """One parsed file plus its suppression table."""

    def __init__(self, display_path: str, source: str, tree: ast.Module,
                 line_suppressions: Dict[int, Set[str]],
                 file_suppressions: Set[str]) -> None:
        self.display_path = display_path
        self.source = source
        self.tree = tree
        self.line_suppressions = line_suppressions
        self.file_suppressions = file_suppressions

    @classmethod
    def from_source(cls, source: str,
                    display_path: str = "<snippet>") -> "FileContext":
        """Parse ``source``; raises SyntaxError on unparsable input."""
        tree = ast.parse(source, filename=display_path)
        line_sup, file_sup = _parse_suppressions(source)
        return cls(display_path, source, tree, line_sup, file_sup)

    def suppressed(self, rule: str, line: int) -> bool:
        if rule in self.file_suppressions:
            return True
        return rule in self.line_suppressions.get(line, ())


def _parse_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract ``# reprolint: disable[-file]=...`` directives.

    Uses :mod:`tokenize` (not string scanning) so directives inside
    string literals are inert.  Tokenization errors degrade to "no
    suppressions" — the file already parsed as Python, so this only
    happens on exotic encodings.
    """
    line_sup: Dict[int, Set[str]] = {}
    file_sup: Set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _DIRECTIVE.search(tok.string)
            if match is None:
                continue
            codes = {c.strip() for c in match.group(2).split(",")}
            if match.group(1) == "disable-file":
                file_sup |= codes
            else:
                line_sup.setdefault(tok.start[0], set()).update(codes)
    except tokenize.TokenError:
        pass
    return line_sup, file_sup


class Rule:
    """Base class: one contract check over one file.

    Subclasses set ``code`` / ``name`` / ``description``, optionally
    ``exempt_paths`` (posix path fragments; a file matching any fragment
    is skipped — these are the modules that *implement* the guarded
    contract), and override :meth:`check`.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    #: Posix path fragments exempt from this rule (contract implementers).
    exempt_paths: Tuple[str, ...] = ()

    def applies(self, display_path: str) -> bool:
        posix = Path(display_path).as_posix()
        return not any(fragment in posix for fragment in self.exempt_paths)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(path=ctx.display_path,
                       line=getattr(node, "lineno", 0),
                       col=getattr(node, "col_offset", 0),
                       rule=self.code, message=message)


class ProjectRule(Rule):
    """Base class: one cross-module contract check over the whole tree.

    Subclasses override :meth:`check_project` and receive a
    :class:`~repro.lint.project.ProjectContext` (module names, symbol
    table, every parsed file).  Findings may land in any file; the
    driver applies that file's inline suppressions and this rule's
    ``exempt_paths`` per finding.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry."""
    if not _CODE_FORMAT.match(cls.code or ""):
        raise ValueError(
            f"rule {cls.__name__} has malformed code {cls.code!r}; "
            f"want RPLnnn")
    clash = _REGISTRY.get(cls.code)
    if clash is not None and clash is not cls:
        raise ValueError(
            f"rule code {cls.code} registered twice "
            f"({clash.__name__} and {cls.__name__})")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by code."""
    _load_rules()
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def rule_codes() -> List[str]:
    _load_rules()
    return sorted(_REGISTRY)


def _load_rules() -> None:
    # Import for the side effect of @register; idempotent.
    from . import rules  # noqa: F401


def select_rules(select: Optional[Iterable[str]] = None,
                 ignore: Optional[Iterable[str]] = None) -> List[Rule]:
    """The active rule set after ``--select`` / ``--ignore`` filtering.

    Unknown codes raise ValueError so a typo in CI config fails loudly
    instead of silently checking nothing.
    """
    known = set(rule_codes())
    for label, codes in (("select", select), ("ignore", ignore)):
        unknown = set(codes or ()) - known
        if unknown:
            raise ValueError(
                f"unknown rule code(s) in --{label}: "
                f"{', '.join(sorted(unknown))}; known: "
                f"{', '.join(sorted(known))}")
    active = all_rules()
    if select:
        wanted = set(select)
        active = [r for r in active if r.code in wanted]
    if ignore:
        dropped = set(ignore)
        active = [r for r in active if r.code not in dropped]
    return active


@dataclass
class LintResult:
    """What one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    #: Findings silenced by inline/file suppressions (count only).
    suppressed: int = 0
    #: Files that failed to parse: (path, message).
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Every ``.py`` file under ``paths``, sorted for stable output."""
    out: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.update(p for p in path.rglob("*.py")
                       if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def _check_context(ctx: FileContext, rules: Sequence[Rule],
                   result: LintResult) -> None:
    for rule in rules:
        if isinstance(rule, ProjectRule) or not rule.applies(
                ctx.display_path):
            continue
        for finding in rule.check(ctx):
            if ctx.suppressed(finding.rule, finding.line):
                result.suppressed += 1
            else:
                result.findings.append(finding)


def _check_project(project: "ProjectContext", rules: Sequence[Rule],
                   result: LintResult) -> None:
    for rule in rules:
        if not isinstance(rule, ProjectRule):
            continue
        for finding in rule.check_project(project):
            if not rule.applies(finding.path):
                continue
            pf = project.file_for(finding.path)
            if pf is not None and pf.ctx.suppressed(finding.rule,
                                                    finding.line):
                result.suppressed += 1
            else:
                result.findings.append(finding)


def lint_paths(paths: Sequence[str],
               select: Optional[Iterable[str]] = None,
               ignore: Optional[Iterable[str]] = None) -> LintResult:
    """Lint every Python file under ``paths``; the main entry point.

    The tree is parsed once into a
    :class:`~repro.lint.project.ProjectContext`; per-file rules run
    over its parsed files, then the cross-module :class:`ProjectRule`
    checks run over the whole program.
    """
    from .project import ProjectContext
    rules = select_rules(select, ignore)
    result = LintResult()
    tree = ProjectContext.build(paths)
    result.parse_errors.extend(tree.parse_errors)
    for pf in tree.files:
        result.files_checked += 1
        _check_context(pf.ctx, rules, result)
    _check_project(tree, rules, result)
    result.findings.sort()
    return result


def lint_source(source: str, display_path: str = "<snippet>",
                select: Optional[Iterable[str]] = None,
                ignore: Optional[Iterable[str]] = None) -> LintResult:
    """Lint one in-memory snippet (the fixture-test entry point)."""
    rules = select_rules(select, ignore)
    result = LintResult()
    try:
        ctx = FileContext.from_source(source, display_path)
    except SyntaxError as exc:
        result.parse_errors.append((display_path, str(exc)))
        return result
    result.files_checked = 1
    _check_context(ctx, rules, result)
    result.findings.sort()
    return result
