"""RPL007 — a constant defined near-identically in two modules will drift.

The ``WALL_CLOCK_METRICS`` exclusion list was once hand-copied from
``sweep/runner.py`` into the determinism-gate scripts such as
``scripts/check_sweep.py`` — literals that must agree for the gates to
mean anything, kept in sync only by a runtime assert and a comment.
That is exactly the coordinator/worker drift class the distributed
layers are most exposed to: the copies agree today and silently
diverge the day one of them gains an entry.

The check: every module-level ``ALL_CAPS = <literal display>``
assignment is resolved to a concrete value through the project symbol
table (cross-module ``from``-imports included, so ``(PHASE_METRIC,
"shard_barrier_seconds")`` and ``("phase_duration_seconds",
"shard_barrier_seconds")`` compare equal).  The same name bound to the
same resolved value in two or more modules is flagged at every site.
The fix is the one the rule's message names: define it once, export it,
import it everywhere else — an ``import`` is not a definition and never
flags.  Trivial one-element literals are ignored.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple

from ..core import Finding, Rule
from ..project import UNRESOLVED, ProjectContext, SourceFile

_CONST_NAME = re.compile(r"^[A-Z][A-Z0-9_]{2,}$")

#: Resolved containers smaller than this cannot meaningfully "drift".
_MIN_ITEMS = 2


def _sized(value: object) -> bool:
    return isinstance(value, (tuple, frozenset)) \
        and len(value) >= _MIN_ITEMS


class DuplicatedConstantRule(Rule):
    code = "RPL007"
    name = "duplicated-constant"
    description = ("the same ALL_CAPS literal defined in several modules "
                   "drifts silently; define it once and import it")

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        groups: Dict[Tuple[str, str],
                     List[Tuple[SourceFile, ast.stmt]]] = {}
        for source in project.files:
            if project.modules.get(source.module) is not source:
                continue  # shadowed duplicate module name
            for node in source.tree.body:
                target = _constant_target(node)
                if target is None:
                    continue
                name, value_node = target
                if not isinstance(value_node,
                                  (ast.Tuple, ast.List, ast.Set, ast.Dict)):
                    continue
                value = project.resolve_expr(source.module, value_node)
                if value is UNRESOLVED or not _sized(value):
                    continue
                groups.setdefault((name, repr(value)), []).append(
                    (source, node))
        for (name, _canon), sites in sorted(
                groups.items(), key=lambda item: item[0]):
            modules = sorted({source.module for source, _node in sites})
            if len(modules) < _MIN_ITEMS:
                continue
            for source, node in sites:
                others = ", ".join(m for m in modules if m != source.module)
                yield self.finding(
                    source, node,
                    f"constant {name} is defined with the same value in "
                    f"{len(modules)} modules (also in {others}); define "
                    f"it once and import it — duplicated literals drift "
                    f"silently")


def _constant_target(
        node: ast.stmt) -> Optional[Tuple[str, ast.expr]]:
    if isinstance(node, ast.Assign) and len(node.targets) == 1 \
            and isinstance(node.targets[0], ast.Name):
        name = node.targets[0].id
        if _CONST_NAME.match(name):
            return name, node.value
    elif isinstance(node, ast.AnnAssign) \
            and isinstance(node.target, ast.Name) \
            and node.value is not None \
            and _CONST_NAME.match(node.target.id):
        return node.target.id, node.value
    return None
