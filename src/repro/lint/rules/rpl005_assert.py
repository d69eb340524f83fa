"""RPL005 — ``assert`` is not a guard in library code.

``python -O`` strips every assert, so an invariant "enforced" by one is
enforced only in the configurations nobody benchmarks.  In ``src/repro``
an impossible state must raise a real exception (``ValueError`` /
``RuntimeError``) carrying a message a sweep error record can surface.
Tests are unaffected: pytest rewrites asserts and never runs under
``-O``, and the CI lint gate only checks ``src``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, Rule
from ..project import ProjectContext, SourceFile


class AssertRule(Rule):
    code = "RPL005"
    name = "assert-as-guard"
    description = ("assert statements are stripped under python -O and "
                   "are not real guards in library code")

    def check_file(self, project: ProjectContext,
                   source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    source, node,
                    "assert is stripped under python -O; raise "
                    "ValueError/RuntimeError with a real message "
                    "instead")
