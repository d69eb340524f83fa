"""RPL004 — telemetry registrations keep the merge contract.

``MetricsRegistry.merge()`` folds per-worker snapshots into one sweep-
level view and is only partition-independent when every call site
registers families identically (PR 3's isolation fixes).  Three naming
rules make that hold statically:

* counter names end in ``_total`` — the convention every existing
  family follows and the marker aggregation relies on to distinguish
  monotonic families;
* histograms declare explicit ``buckets=`` bounds — merge requires
  bound-for-bound equality, so bounds must be visible at the call site,
  not inherited from a default that could drift;
* ``labelnames`` are literal tuples/lists of string literals — a
  computed label set could differ between workers, splitting one family
  into unmergeable variants.

Metric *names* must be statically known strings for the same reason:
a literal, or a constant the project symbol table resolves to one
(timers.py names its family via ``PHASE_METRIC`` so the sweep runner
can import the same constant for its wall-clock exclusion list).  The
registry implementation itself (``telemetry/registry.py``) is exempt:
``merge()`` legitimately re-creates families from snapshot-carried
names and labels.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from ..core import Finding, Rule
from ..imports import iter_calls
from ..project import ProjectContext, SourceFile

_FACTORIES = ("counter", "gauge", "histogram")


def _kwarg(call: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _literal_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class TelemetryNamingRule(Rule):
    code = "RPL004"
    name = "telemetry-naming"
    description = ("metric registrations must be statically mergeable: "
                   "literal names, _total counters, explicit histogram "
                   "bounds, literal label tuples")
    exempt_paths: Tuple[str, ...] = ("repro/telemetry/registry.py",)

    def check_file(self, project: ProjectContext,
                   source: SourceFile) -> Iterator[Finding]:
        for call in iter_calls(source.tree):
            if not isinstance(call.func, ast.Attribute) \
                    or call.func.attr not in _FACTORIES:
                continue
            kind = call.func.attr
            yield from self._check_name(project, source, call, kind)
            yield from self._check_labelnames(source, call, kind)
            if kind == "histogram":
                yield from self._check_buckets(source, call)

    def _check_name(self, project: ProjectContext, source: SourceFile,
                    call: ast.Call, kind: str) -> Iterator[Finding]:
        name_node = call.args[0] if call.args else _kwarg(call, "name")
        if name_node is None:
            return  # not a registry call shape; stay quiet
        name = project.resolve_expr(source.module, name_node)
        if not isinstance(name, str):
            yield self.finding(
                source, call,
                f"{kind}() metric name must be a string literal so the "
                f"family set is identical in every worker")
            return
        if kind == "counter" and not name.endswith("_total"):
            yield self.finding(
                source, call,
                f"counter {name!r} must end in '_total' (monotonic-"
                f"family naming convention; see DESIGN.md Telemetry)")

    def _check_labelnames(self, source: SourceFile, call: ast.Call,
                          kind: str) -> Iterator[Finding]:
        labels = _kwarg(call, "labelnames")
        if labels is None and len(call.args) >= 3:
            labels = call.args[2]
        if labels is None:
            return
        if not isinstance(labels, (ast.Tuple, ast.List)) or not all(
                _literal_str(e) is not None for e in labels.elts):
            yield self.finding(
                source, call,
                f"{kind}() labelnames must be a literal tuple/list of "
                f"string literals; computed label sets can differ "
                f"between workers and break MetricsRegistry.merge()")

    def _check_buckets(self, source: SourceFile,
                       call: ast.Call) -> Iterator[Finding]:
        if _kwarg(call, "buckets") is None and len(call.args) < 4:
            yield self.finding(
                source, call,
                "histogram() must declare explicit buckets= bounds; "
                "merge() requires bound-for-bound equality across "
                "workers, so bounds belong at the registration site")
