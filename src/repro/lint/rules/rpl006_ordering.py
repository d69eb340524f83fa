"""RPL006 — don't iterate sets where the order can materialize.

Set iteration order depends on string hash randomization, so it differs
between processes unless ``PYTHONHASHSEED`` is pinned — which sweep
workers do not guarantee.  A ``for`` loop over a bare ``set()`` (or a
set union, or ``dict.keys()`` piped through sets) that feeds RNG draws,
emitted series, dict insertion order, or file output makes byte-
identical parallel sweeps impossible (DESIGN.md "Sweep runner"
determinism contract).  The fix is one ``sorted(...)`` at the iteration
site.

The check is conservative: iteration contexts that cannot leak order —
``sum``/``len``/``min``/``max``/``any``/``all``/``set``/``frozenset``/
``sorted`` consumers, and set-comprehension results — are not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..core import Finding, Rule
from ..project import ProjectContext, SourceFile

#: Consumers for which the argument's iteration order is immaterial.
_ORDER_INSENSITIVE = frozenset(
    {"sum", "len", "min", "max", "any", "all", "set", "frozenset",
     "sorted"})
#: Order-materializing constructors fed directly by an unordered expr.
_ORDER_SENSITIVE = frozenset({"list", "tuple", "enumerate"})

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


def _is_unordered(node: ast.expr) -> bool:
    """True when ``node`` syntactically evaluates to a set / keys view."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return _is_unordered(node.left) or _is_unordered(node.right)
    return False


class UnorderedIterationRule(Rule):
    code = "RPL006"
    name = "unordered-iteration"
    description = ("iterating a bare set()/dict.keys() leaks hash-"
                   "randomized order into results; wrap in sorted(...)")

    def check_file(self, project: ProjectContext,
                   source: SourceFile) -> Iterator[Finding]:
        blessed: Set[int] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in _ORDER_INSENSITIVE:
                blessed.update(id(arg) for arg in node.args)

        for node in ast.walk(source.tree):
            if isinstance(node, ast.For) \
                    and id(node.iter) not in blessed \
                    and _is_unordered(node.iter):
                yield self.finding(
                    source, node.iter,
                    "for-loop over an unordered set/keys expression; "
                    "iteration order is hash-randomized across "
                    "processes — wrap in sorted(...)")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)) \
                    and id(node) not in blessed:
                for gen in node.generators:
                    if _is_unordered(gen.iter):
                        yield self.finding(
                            source, gen.iter,
                            "comprehension over an unordered set/keys "
                            "expression materializes hash-randomized "
                            "order — wrap in sorted(...)")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in _ORDER_SENSITIVE \
                    and node.args and _is_unordered(node.args[0]):
                yield self.finding(
                    source, node,
                    f"{node.func.id}() of an unordered set/keys "
                    f"expression materializes hash-randomized order — "
                    f"wrap the argument in sorted(...)")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "join" \
                    and node.args and _is_unordered(node.args[0]):
                yield self.finding(
                    source, node,
                    "join() over an unordered set/keys expression "
                    "produces a hash-randomized string — wrap the "
                    "argument in sorted(...)")
