"""RPL003 — Topology/Link state mutates only through their APIs.

The routing-cache and fluid-allocator contracts (DESIGN.md "Routing
cache", "Incremental fluid allocator") key every cached artifact on
``Topology.version``.  The version only advances inside the sanctioned
mutators — ``add_*``/``remove_*``/``set_capacity``/``set_down``/
``set_up`` — so writing ``link.capacity_bps = x`` or ``topo.links[k] =
l`` from anywhere else serves stale SSSP trees and stale allocations
without any error.  This rule flags direct writes to the guarded fields
and container attributes everywhere except the modules that implement
the contract (topology.py, links.py, node.py).

Heuristic by design: the check is name-based (any ``.capacity_bps =``
assignment), not type-based — a dependency-free AST pass cannot infer
types, and the guarded names are specific enough that a false positive
means a *confusingly named* field, which is worth flagging anyway.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..core import Finding, Rule
from ..project import ProjectContext, SourceFile

#: Scalar fields whose writes must advance Topology.version.
GUARDED_FIELDS = frozenset(
    {"capacity_bps", "delay_s", "queue_bytes", "up", "version"})
#: Container attributes owned by Topology (and Node adjacency).
GUARDED_MAPS = frozenset({"links", "nodes"})
#: Mutating dict methods on the guarded containers.
_MUTATING_METHODS = frozenset(
    {"pop", "popitem", "clear", "update", "setdefault"})

_FIELD_HINTS = {
    "capacity_bps": "Link.set_capacity()",
    "delay_s": "a new Topology.add_duplex_link()",
    "queue_bytes": "the Link constructor (queue_bytes=...)",
    "up": "Link.set_down()/set_up()",
    "version": "the Topology mutator methods (version is owned state)",
}


def _guarded_map(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in GUARDED_MAPS


class DirectMutationRule(Rule):
    code = "RPL003"
    name = "direct-topology-mutation"
    description = ("direct writes to Topology/Link state bypass version "
                   "bumps and serve stale RouteCache/fluid allocations")
    exempt_paths: Tuple[str, ...] = (
        "repro/netsim/topology.py",
        "repro/netsim/links.py",
        "repro/netsim/node.py",
    )

    def check_file(self, project: ProjectContext,
                   source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    yield from self._check_target(source, target)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) \
                            and _guarded_map(target.value):
                        yield self.finding(
                            source, target,
                            f"del on .{target.value.attr}[...] bypasses "  # type: ignore[attr-defined]
                            f"Topology.remove_link()/remove_node() and "
                            f"leaves Topology.version stale")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATING_METHODS \
                    and _guarded_map(node.func.value):
                attr = node.func.value.attr  # type: ignore[attr-defined]
                yield self.finding(
                    source, node,
                    f".{attr}.{node.func.attr}(...) mutates Topology "
                    f"state behind the version counter; use the Topology "
                    f"mutator methods")

    def _check_target(self, source: SourceFile,
                      target: ast.AST) -> Iterator[Finding]:
        if isinstance(target, ast.Attribute) \
                and target.attr in GUARDED_FIELDS:
            # Constructor self-writes are the implementation's own
            # business and live in the exempt modules; outside them any
            # write is a bypass.
            yield self.finding(
                source, target,
                f"direct write to .{target.attr} bypasses "
                f"{_FIELD_HINTS[target.attr]}; cached routing/fluid "
                f"state keyed on Topology.version goes stale")
        elif isinstance(target, ast.Subscript) \
                and _guarded_map(target.value):
            yield self.finding(
                source, target,
                f"subscript write to .{target.value.attr}[...] bypasses "  # type: ignore[attr-defined]
                f"the Topology mutators (add_duplex_link/remove_link/"
                f"add_switch/remove_node)")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._check_target(source, element)
