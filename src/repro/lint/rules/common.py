"""Shared AST helpers for reprolint rules.

The rules that guard module APIs (``random``, ``time``, ``datetime``)
need to see through import aliasing: ``import random
as rnd`` followed by ``rnd.random()`` is the same contract violation as
the unaliased call.  :class:`ImportMap` records, per file, which local
names are bound to which canonical dotted modules (and which names were
``from``-imported from them), so rules resolve every call head back to
its canonical module path before matching.

Project rules (:mod:`repro.lint.project`) construct the map with the
file's own dotted module name, which additionally resolves *relative*
imports (``from ..checkpoint import pack_state`` inside
``repro.shard.region`` binds ``pack_state`` to ``repro.checkpoint``) so
the symbol table follows package-relative ``from``-imports.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple


def dotted_parts(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")`` for pure Name/Attribute chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


class ImportMap:
    """Local-name bindings for modules and from-imported symbols.

    Without ``module`` only absolute imports are recorded (the per-file
    rules' historical behavior).  With ``module`` (the file's dotted
    module name) and ``is_package`` (True for ``__init__.py``),
    relative ``from``-imports are resolved to absolute module paths.
    """

    def __init__(self, tree: ast.Module, module: Optional[str] = None,
                 is_package: bool = False) -> None:
        self._module = module
        self._is_package = is_package
        #: local alias -> canonical dotted module ("dt" -> "datetime").
        self.modules: Dict[str, str] = {}
        #: local name -> (canonical module, original symbol name).
        self.symbols: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    local = item.asname or item.name.split(".")[0]
                    # `import os.path` binds "os"; with asname
                    # the alias names the full dotted submodule.
                    self.modules[local] = (item.name if item.asname
                                          else item.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                base = self._from_base(node)
                if base is None:
                    continue
                for item in node.names:
                    local = item.asname or item.name
                    self.symbols[local] = (base, item.name)

    def _from_base(self, node: ast.ImportFrom) -> Optional[str]:
        """The absolute module a ``from ... import`` pulls names from;
        None when a relative import cannot be resolved (no module name
        given, or the import climbs past the package root)."""
        if node.level == 0:
            return node.module
        if self._module is None:
            return None
        parts = self._module.split(".")
        # Level 1 names the enclosing package: the module's parent, or
        # the package itself when the file is an ``__init__.py``.
        drop = node.level - 1 if self._is_package else node.level
        if drop >= len(parts):
            return None  # climbs past the package root
        base = parts[:len(parts) - drop]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base) if base else None

    def resolve_call(self, func: ast.AST) -> Optional[Tuple[str, str]]:
        """Canonical ``(module, symbol)`` for a call's func expression.

        ``rnd.Random`` -> ("random", "Random"); with ``from random
        import Random as R``, ``R`` -> ("random", "Random"); for
        ``os.path.join`` -> ("os.path", "join").  None when the
        head is not an imported module/symbol.
        """
        parts = dotted_parts(func)
        if parts is None:
            return None
        head = parts[0]
        if len(parts) == 1:
            entry = self.symbols.get(head)
            return entry
        module = self.modules.get(head)
        if module is None:
            symbol = self.symbols.get(head)
            if symbol is None:
                return None
            # `from os import path as p; p.join()` — the symbol
            # is itself a module; extend the dotted path through it.
            module = f"{symbol[0]}.{symbol[1]}"
        dotted = (module,) + parts[1:]
        return ".".join(dotted[:-1]), dotted[-1]


def iter_calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node
