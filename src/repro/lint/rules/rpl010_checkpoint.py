"""RPL010 — checkpointed state must be picklable.

A checkpoint pickles everything ``pack_state`` reaches, plus a globals
bundle that re-seats the module-level ``itertools.count`` ID sequences
listed in ``GLOBAL_SEQUENCES``.  Two failure modes slip past per-file
analysis:

* an object a checkpoint can reach grows an unpicklable attribute —
  a ``lambda`` default, an ``open()`` handle, a live generator — and
  the first ``pack_state`` after that change dies (or worse, the restore
  silently rebuilds different behavior);
* someone adds a module-level ``itertools.count`` sequence without
  registering it, so restored runs re-issue IDs from zero and the
  byte-identity gate fails a window later.

The rule therefore works from the *project*: its scope is every linted
module outside ``exempt_paths``.  Over ``src`` + ``scripts`` that is
every module a checkpoint can reach, plus the scripts.  It flags

* ``lambda`` values bound to ``self.<attr>``, class-level, or
  module-level names (closures don't pickle);
* ``open(...)`` calls bound to ``self.<attr>`` or module level (file
  handles don't pickle; locals are fine — they die with the frame);
* generator expressions bound the same way (generators don't pickle);
* module-level ``itertools.count(...)`` assignments whose
  ``(module, attr)`` pair is missing from ``GLOBAL_SEQUENCES``;
* a ``lambda`` or nested ``def`` passed to ``schedule``,
  ``schedule_at`` or ``every``: the event heap holds it, and
  ``pack_state`` pickles the heap (a ``sorted``/``max`` key is fine).

Modules that *implement* the machinery (checkpoint, telemetry, lint
itself) are exempt — they own the contract.  Projects with no
``GLOBAL_SEQUENCES`` definition skip the registry check entirely.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional, Set, Tuple

from ..core import Finding, Rule
from ..project import UNRESOLVED, ProjectContext, SourceFile


def _registered_sequences(
        project: ProjectContext) -> Optional[Set[Tuple[str, str]]]:
    """The ``(module, attr)`` pairs in the project's GLOBAL_SEQUENCES
    registry, or None when no project module defines one."""
    for source in project.files:
        value_node = project.module_assignments(source.module).get(
            "GLOBAL_SEQUENCES")
        if value_node is None:
            continue
        value = project.resolve_expr(source.module, value_node)
        if value is UNRESOLVED or not isinstance(value, tuple):
            return set()
        pairs: Set[Tuple[str, str]] = set()
        for entry in value:
            if isinstance(entry, tuple) and len(entry) == 2 \
                    and all(isinstance(part, str) for part in entry):
                pairs.add((entry[0], entry[1]))
        return pairs
    return None


def _is_itertools_count(node: ast.expr, source: SourceFile) -> bool:
    if not isinstance(node, ast.Call):
        return False
    resolved = source.imports.resolve_call(node.func)
    return resolved == ("itertools", "count")


#: Event-engine methods whose callbacks land in the checkpointed heap.
_SCHEDULERS = frozenset({"schedule", "schedule_at", "every"})


def _scheduled_closures(node: ast.AST, nested: FrozenSet[str] = frozenset()
                        ) -> Iterator[Tuple[ast.expr, str]]:
    """``(argument, description)`` for each lambda or nested ``def``
    (a name in ``nested``) handed to a scheduler method."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scheduled_closures(child, nested | {
                inner.name for inner in ast.walk(child) if inner is not child
                and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))})
            continue
        if isinstance(child, ast.Call) \
                and isinstance(child.func, ast.Attribute) \
                and child.func.attr in _SCHEDULERS:
            for arg in child.args + [kw.value for kw in child.keywords]:
                if isinstance(arg, ast.Lambda):
                    yield arg, f"a lambda passed to {child.func.attr}()"
                elif isinstance(arg, ast.Name) and arg.id in nested:
                    yield arg, (f"nested def {arg.id!r} passed to "
                                f"{child.func.attr}()")
        yield from _scheduled_closures(child, nested)


def _unpicklable_kind(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Lambda):
        return "a lambda"
    if isinstance(node, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "open":
        return "an open() handle"
    return None


def _iter_bindings(tree: ast.Module) -> Iterator[
        Tuple[str, ast.expr, ast.stmt]]:
    """``(where, value, stmt)`` for module-level, class-level, and
    ``self.<attr>`` assignments — the bindings a pickle walk reaches."""
    for node in tree.body:
        for value, stmt in _simple_assigns(node):
            yield "module level", value, stmt
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                for value, stmt in _simple_assigns(item):
                    yield f"class {node.name}", value, stmt
            for item in ast.walk(node):
                if isinstance(item, ast.Assign) \
                        and len(item.targets) == 1 \
                        and isinstance(item.targets[0], ast.Attribute) \
                        and isinstance(item.targets[0].value, ast.Name) \
                        and item.targets[0].value.id == "self":
                    yield (f"self.{item.targets[0].attr}",
                           item.value, item)


def _simple_assigns(node: ast.stmt) -> Iterator[
        Tuple[ast.expr, ast.stmt]]:
    if isinstance(node, ast.Assign):
        yield node.value, node
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        yield node.value, node


class CheckpointSafetyRule(Rule):
    code = "RPL010"
    name = "checkpoint-safety"
    description = ("checkpointed state must pickle: no "
                   "lambda/open()/generator bindings, and module-level "
                   "itertools.count sequences must be in "
                   "GLOBAL_SEQUENCES")
    exempt_paths = ("repro/telemetry/", "repro/checkpoint/",
                    "repro/lint/")

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        registered = _registered_sequences(project)
        for source in project.files:
            if project.modules.get(source.module) is not source:
                continue  # shadowed duplicate module name
            yield from self._check_module(source, registered)

    def _check_module(self, source: SourceFile,
                      registered: Optional[Set[Tuple[str, str]]]
                      ) -> Iterator[Finding]:
        for where, value, stmt in _iter_bindings(source.tree):
            kind = _unpicklable_kind(value)
            if kind is not None:
                yield self.finding(
                    source, stmt,
                    f"{kind} bound at {where} does not pickle, so a "
                    f"checkpoint that reaches it fails; bind a "
                    f"module-level function / path / list instead")
        for arg, what in _scheduled_closures(source.tree):
            yield self.finding(
                source, arg,
                f"{what} sits in the event heap that pack_state "
                f"pickles, and closures do not pickle; pass a "
                f"module-level function (functools.partial binds its "
                f"arguments) or a bound method")
        if registered is None:
            return
        for node in source.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and _is_itertools_count(node.value, source):
                attr = node.targets[0].id
                if (source.module, attr) not in registered:
                    yield self.finding(
                        source, node,
                        f"module-level itertools.count {attr!r} is not "
                        f"registered in GLOBAL_SEQUENCES; restored "
                        f"runs would re-issue IDs from its initial "
                        f"value")
