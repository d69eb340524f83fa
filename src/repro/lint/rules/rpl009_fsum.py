"""RPL009 — float folds in shard/sweep aggregation must use math.fsum.

The sharded engine's parity contract (DESIGN.md, PR 8–9) hinges on one
numeric fact: ``math.fsum`` is correctly rounded and therefore
order-independent, while ``sum()`` and ``+=`` accumulate rounding error
in whatever order the samples arrive — and in the shard/sweep layers
that order depends on worker scheduling.  A naive fold over
cross-process-collected float series is a parity bug that only shows up
as a one-ulp drift between the sharded and single-process runs, the
worst kind of failure to bisect.

Within aggregation modules (any file under a ``shard/`` or ``sweep/``
directory) the rule flags:

* ``sum(...)`` calls — unless the iterable is provably integral (a
  comprehension whose element is a ``len(...)`` call or an int
  literal), counting things is fine;
* ``name += ...`` inside a loop when ``name`` was initialized to a
  float literal (``total = 0.0`` ... ``total += sample``).

The fix is the keystone the docstrings document: ``math.fsum(series)``
(or collect into a list and fold once).  Integer accumulators and
non-aggregation modules are out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from ..core import Finding, Rule
from ..project import ProjectContext, SourceFile

_PATH_FRAGMENTS = ("/shard/", "/sweep/")


def _is_aggregation_module(source: SourceFile) -> bool:
    posix = f"/{source.path}"
    return any(fragment in posix for fragment in _PATH_FRAGMENTS)


def _int_blessed(arg: ast.expr) -> bool:
    """True when the iterable fed to ``sum`` is provably integral."""
    if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
        elt = arg.elt
        if isinstance(elt, ast.Call) and isinstance(elt.func, ast.Name) \
                and elt.func.id == "len":
            return True
        if isinstance(elt, ast.Constant) and isinstance(elt.value, int) \
                and not isinstance(elt.value, bool):
            return True
        # `1 if cond else 0` — counting via a conditional.
        if isinstance(elt, ast.IfExp) \
                and isinstance(elt.body, ast.Constant) \
                and isinstance(elt.body.value, int):
            return True
    return False


def _float_names(tree: ast.Module) -> Set[str]:
    """Names anywhere in the file initialized to a float literal."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, float):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


class FsumParityRule(Rule):
    code = "RPL009"
    name = "parity-unsafe-fold"
    description = ("float accumulation in shard/sweep aggregation must "
                   "use math.fsum — sum()/+= folds are order-dependent "
                   "and break cross-process parity")

    def check_file(self, project: ProjectContext,
                   source: SourceFile) -> Iterator[Finding]:
        if not _is_aggregation_module(source):
            return
        float_names = _float_names(source.tree)
        loop_depth = 0
        for node, entering in _walk_loops(source.tree):
            if entering is not None:
                loop_depth += 1 if entering else -1
                continue
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "sum" \
                    and node.args and not _int_blessed(node.args[0]):
                yield self.finding(
                    source, node,
                    "sum() over a float series is order-dependent and "
                    "breaks shard parity; use math.fsum (or bless an "
                    "integer count with a len()/int-literal "
                    "comprehension)")
            elif isinstance(node, ast.AugAssign) and loop_depth > 0 \
                    and isinstance(node.op, ast.Add) \
                    and isinstance(node.target, ast.Name) \
                    and node.target.id in float_names:
                yield self.finding(
                    source, node,
                    f"float accumulator {node.target.id!r} grows with "
                    f"+= inside a loop; collect the series and fold "
                    f"once with math.fsum for order-independent parity")


def _walk_loops(
        tree: ast.Module) -> Iterator[Tuple[ast.AST, Optional[bool]]]:
    """Pre-order walk that brackets loop bodies with enter/exit
    markers: yields ``(node, None)`` for every node, ``(node, True)``
    before a loop body and ``(node, False)`` after it."""
    def visit(node: ast.AST) -> Iterator[Tuple[ast.AST, Optional[bool]]]:
        yield node, None
        is_loop = isinstance(node, (ast.For, ast.While, ast.AsyncFor))
        if is_loop:
            yield node, True
        for child in ast.iter_child_nodes(node):
            yield from visit(child)
        if is_loop:
            yield node, False
    yield from visit(tree)
