"""Whole-program context for reprolint: the cross-module analysis layer.

Per-file rules (:class:`~repro.lint.core.Rule`) see one AST at a time,
so every contract that *spans* modules — a constant duplicated into
three files, a module-level ID sequence the checkpoint globals bundle
doesn't know about — was unenforceable before this layer existed.
:class:`ProjectContext` parses every file passed to the linter once and
exposes what the project rules (:class:`~repro.lint.core.ProjectRule`)
need:

* **Module naming** — each file's dotted module name, derived by
  climbing ``__init__.py`` ancestors (``src/repro/shard/workers.py``
  → ``repro.shard.workers``; a bare script → its stem).
* **Symbol table** — top-level bindings per module, with
  :meth:`resolve_expr` evaluating literal displays through
  cross-module ``from``-imports (``WALL_CLOCK_METRICS =
  (PHASE_METRIC, ...)`` resolves to concrete strings even though
  ``PHASE_METRIC`` lives two modules away).  Relative imports resolve
  through :class:`~repro.lint.rules.common.ImportMap` given the
  file's module name.

Everything is deterministic: files are visited in sorted path order,
and two builds over an unchanged tree yield findings in identical
order (pinned by tests).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .core import FileContext, iter_python_files

if TYPE_CHECKING:
    # A runtime import would be circular: rules/__init__ imports the
    # project rules, which import this module for UNRESOLVED /
    # ProjectContext.  build() imports ImportMap lazily instead.
    from .rules.common import ImportMap

#: Sentinel for "this expression is not statically resolvable".
UNRESOLVED = object()

_RESOLVE_DEPTH = 5


def module_name_for(path: Path) -> Tuple[str, bool]:
    """``(dotted module name, is_package)`` for a file on disk.

    Climbs parent directories while they contain ``__init__.py``, so
    the name matches what ``import`` would use with the package root on
    ``sys.path`` (``src/repro/shard/workers.py`` under a ``src`` root →
    ``repro.shard.workers``); a standalone script maps to its stem.
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


class ProjectFile:
    """One parsed file plus its project-level identity."""

    def __init__(self, module: str, ctx: FileContext,
                 imports: "ImportMap") -> None:
        self.module = module
        self.ctx = ctx
        self.imports = imports

    @property
    def display_path(self) -> str:
        return self.ctx.display_path


class ProjectContext:
    """The whole parsed tree: modules and their symbol table."""

    def __init__(self, files: List[ProjectFile],
                 parse_errors: List[Tuple[str, str]]) -> None:
        self.files = sorted(files, key=lambda f: f.display_path)
        self.parse_errors = parse_errors
        #: dotted module name -> file (first in path order on collision).
        self.modules: Dict[str, ProjectFile] = {}
        for pf in self.files:
            self.modules.setdefault(pf.module, pf)
        self._by_path: Dict[str, ProjectFile] = {
            pf.display_path: pf for pf in self.files}
        self._constants: Dict[Tuple[str, str], object] = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def build(cls, paths: Sequence[str]) -> "ProjectContext":
        """Parse every Python file under ``paths``."""
        from .rules.common import ImportMap
        files: List[ProjectFile] = []
        parse_errors: List[Tuple[str, str]] = []
        for path in iter_python_files(paths):
            display = path.as_posix()
            try:
                source = path.read_text(encoding="utf-8")
                ctx = FileContext.from_source(source, display)
            except (OSError, SyntaxError, UnicodeDecodeError) as exc:
                parse_errors.append((display, str(exc)))
                continue
            module, is_package = module_name_for(path)
            files.append(ProjectFile(
                module, ctx,
                ImportMap(ctx.tree, module=module, is_package=is_package)))
        return cls(files, parse_errors)

    # -- lookups --------------------------------------------------------
    def file_for(self, display_path: str) -> Optional[ProjectFile]:
        return self._by_path.get(display_path)

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
        pf = self.modules.get(module)
        if pf is None:
            return {}
        out: Dict[str, ast.expr] = {}
        for node in pf.ctx.tree.body:
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
        pf = self.modules.get(module)
        value: object = UNRESOLVED
        if pf is not None:
            assigned = self.module_assignments(module).get(name)
            if assigned is not None:
                value = self.resolve_expr(module, assigned, depth + 1)
            else:
                imported = pf.imports.symbols.get(name)
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
