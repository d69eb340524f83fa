"""The parsed tree reprolint checks: one :class:`SourceFile` per file,
gathered into a :class:`ProjectContext`.

Every rule runs over the same parse.  What the rules need besides the
AST is computed once per file here:

* **Module naming** — each file's dotted module name, derived by
  climbing ``__init__.py`` ancestors (``src/repro/sweep/runner.py``
  → ``repro.sweep.runner``; a bare script → its stem).
* **Imports** — an :class:`~repro.lint.imports.ImportMap` built with
  the file's module name, so relative imports resolve too.
* **Suppressions** — the ``# reprolint: disable=RPL0xx`` comments, per
  line.
* **Symbol table** — :meth:`ProjectContext.resolve_expr` evaluates
  literal displays through cross-module ``from``-imports
  (``WALL_CLOCK_METRICS = (PHASE_METRIC, ...)`` resolves to concrete
  strings even though ``PHASE_METRIC`` lives two modules away).

Everything is deterministic: files are visited in sorted path order,
and two builds over an unchanged tree yield findings in identical
order (pinned by tests).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
import io
from pathlib import Path
import re
import tokenize
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .imports import ImportMap

#: Sentinel for "this expression is not statically resolvable".
UNRESOLVED = object()

_RESOLVE_DEPTH = 5

_DIRECTIVE = re.compile(
    r"#\s*reprolint:\s*disable\s*=\s*([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)")


def _parse_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Line -> codes silenced by ``# reprolint: disable=...`` there.

    Uses :mod:`tokenize` (not string scanning) so directives inside
    string literals are inert.  Tokenization errors degrade to "no
    suppressions" — the file already parsed as Python, so this only
    happens on exotic encodings.
    """
    table: Dict[int, FrozenSet[str]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            match = _DIRECTIVE.search(tok.string) \
                if tok.type == tokenize.COMMENT else None
            if match is not None:
                codes = {c.strip() for c in match.group(1).split(",")}
                table[tok.start[0]] = table.get(tok.start[0],
                                                frozenset()) | codes
    except tokenize.TokenError:
        pass
    return table


@dataclass(frozen=True)
class SourceFile:
    """One parsed file: path, module name, AST, imports, suppressions."""

    #: Posix path as given on the command line; findings carry it.
    path: str
    module: str
    tree: ast.Module
    imports: ImportMap
    suppressions: Dict[int, FrozenSet[str]]

    @classmethod
    def parse(cls, path: Path) -> "SourceFile":
        """Read and parse ``path``; raises OSError, SyntaxError or
        UnicodeDecodeError on a file that cannot be checked."""
        display = path.as_posix()
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=display)
        module, is_package = module_name_for(path)
        return cls(display, module, tree,
                   ImportMap(tree, module, is_package),
                   _parse_suppressions(source))

    def suppressed(self, rule: str, line: int) -> bool:
        return rule in self.suppressions.get(line, ())


def module_name_for(path: Path) -> Tuple[str, bool]:
    """``(dotted module name, is_package)`` for a file on disk.

    Climbs parent directories while they contain ``__init__.py``, so
    the name matches what ``import`` would use with the package root on
    ``sys.path`` (``src/repro/sweep/runner.py`` under a ``src`` root →
    ``repro.sweep.runner``); a standalone script maps to its stem.
    """
    is_package = path.name == "__init__.py"
    if is_package:
        parts = [path.parent.name]
        current = path.parent.parent
    else:
        parts = [path.stem]
        current = path.parent
    while (current / "__init__.py").is_file():
        parts.append(current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(reversed(parts)), is_package


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Every ``.py`` file under ``paths``, sorted for stable output.

    Raises ValueError on a path that does not exist or when no path
    holds a ``.py`` file: a lint gate that checks nothing must not pass.
    """
    out: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.update(p for p in path.rglob("*.py")
                       if "__pycache__" not in p.parts)
        elif not path.exists():
            raise ValueError(f"no such file or directory: {raw}")
        elif path.suffix == ".py":
            out.add(path)
    if not out:
        raise ValueError(f"no .py file under {' '.join(paths)}")
    return sorted(out)


class ProjectContext:
    """The whole parsed tree: its files and their symbol table."""

    def __init__(self, files: List[SourceFile],
                 parse_errors: List[Tuple[str, str]]) -> None:
        self.files = sorted(files, key=lambda f: f.path)
        self.parse_errors = parse_errors
        #: dotted module name -> file (first in path order on collision).
        self.modules: Dict[str, SourceFile] = {}
        for source in self.files:
            self.modules.setdefault(source.module, source)
        self._constants: Dict[Tuple[str, str], object] = {}

    @classmethod
    def build(cls, paths: Sequence[str]) -> "ProjectContext":
        """Parse every Python file under ``paths`` once."""
        files: List[SourceFile] = []
        parse_errors: List[Tuple[str, str]] = []
        for path in iter_python_files(paths):
            try:
                files.append(SourceFile.parse(path))
            except (OSError, SyntaxError, UnicodeDecodeError) as exc:
                parse_errors.append((path.as_posix(), str(exc)))
        return cls(files, parse_errors)

    def _project_target(self, dotted: str) -> Optional[str]:
        """The longest prefix of ``dotted`` that is a project module
        (``repro.netsim.flows.FlowSet`` → ``repro.netsim.flows``)."""
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return None

    # -- symbol table ---------------------------------------------------
    def module_assignments(self, module: str) -> Dict[str, ast.expr]:
        """Top-level single-name assignments of ``module`` (last wins,
        matching runtime rebinding)."""
        source = self.modules.get(module)
        if source is None:
            return {}
        out: Dict[str, ast.expr] = {}
        for node in source.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                out[node.targets[0].id] = node.value
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name) \
                    and node.value is not None:
                out[node.target.id] = node.value
        return out

    def resolve_constant(self, module: str, name: str,
                         depth: int = 0) -> object:
        """The concrete value of ``module.name``: a local top-level
        literal, or one followed through project ``from``-imports.
        Returns :data:`UNRESOLVED` when no literal value is derivable.
        """
        if depth > _RESOLVE_DEPTH:
            return UNRESOLVED
        key = (module, name)
        if depth == 0 and key in self._constants:
            return self._constants[key]
        source = self.modules.get(module)
        value: object = UNRESOLVED
        if source is not None:
            assigned = self.module_assignments(module).get(name)
            if assigned is not None:
                value = self.resolve_expr(module, assigned, depth + 1)
            else:
                imported = source.imports.symbols.get(name)
                if imported is not None:
                    origin, symbol = imported
                    target = self._project_target(origin)
                    if target is not None:
                        value = self.resolve_constant(target, symbol,
                                                      depth + 1)
        if depth == 0:
            self._constants[key] = value
        return value

    def resolve_expr(self, module: str, node: ast.expr,
                     depth: int = 0) -> object:
        """Evaluate a literal display, following Name references through
        the cross-module symbol table; :data:`UNRESOLVED` on anything
        dynamic."""
        if depth > _RESOLVE_DEPTH:
            return UNRESOLVED
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return self.resolve_constant(module, node.id, depth + 1)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            items = [self.resolve_expr(module, elt, depth + 1)
                     for elt in node.elts]
            if any(item is UNRESOLVED for item in items):
                return UNRESOLVED
            if isinstance(node, ast.Set):
                try:
                    return frozenset(items)
                except TypeError:
                    return UNRESOLVED
            return tuple(items)
        if isinstance(node, ast.Dict):
            out: Dict[object, object] = {}
            for key_node, value_node in zip(node.keys, node.values):
                if key_node is None:  # ** splat
                    return UNRESOLVED
                key = self.resolve_expr(module, key_node, depth + 1)
                value = self.resolve_expr(module, value_node, depth + 1)
                if key is UNRESOLVED or value is UNRESOLVED:
                    return UNRESOLVED
                try:
                    out[key] = value
                except TypeError:
                    return UNRESOLVED
            # Canonical, order-independent, hash-free dict form: equal
            # dicts resolve equal whatever their source key order.
            return tuple(sorted(((repr(k), v) for k, v in out.items()),
                                key=lambda kv: kv[0]))
        return UNRESOLVED
