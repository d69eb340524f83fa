"""RPL001 — all randomness must flow from a seeded ``random.Random``.

The contract (engine.py, DESIGN.md "Determinism"): every stochastic
decision in the simulator derives from ``Simulator.rng`` or from an
explicitly seed-derived ``random.Random`` stream.  Module-global RNG
calls (``random.random()``), unseeded constructions
(``random.Random()``), ``random.seed`` (mutates shared global state),
``SystemRandom`` (OS entropy), and dynamic ``__import__("random")``
(the exact PR 3 topology.py bug) all break cross-run and cross-worker
reproducibility.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import FileContext, Finding, Rule, register
from .common import ImportMap, iter_calls


def _is_string_arg(call: ast.Call, value: str) -> bool:
    return bool(call.args) and isinstance(call.args[0], ast.Constant) \
        and call.args[0].value == value


@register
class UnseededRandomnessRule(Rule):
    code = "RPL001"
    name = "unseeded-randomness"
    description = ("module-global or unseeded RNG use; all randomness "
                   "must flow from a seeded random.Random stream")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for call in iter_calls(ctx.tree):
            resolved = imports.resolve_call(call.func)
            if resolved is not None:
                yield from self._check_resolved(ctx, call, *resolved)
            # __import__("random") / importlib.import_module("random"):
            # dodges import tracking entirely — the PR 3 topology.py bug.
            if isinstance(call.func, ast.Name) \
                    and call.func.id == "__import__" \
                    and _is_string_arg(call, "random"):
                yield self.finding(
                    ctx, call,
                    '__import__("random") smuggles in the module-global '
                    "RNG; import random and construct a seeded "
                    "random.Random instead")
            elif resolved == ("importlib", "import_module") \
                    and _is_string_arg(call, "random"):
                yield self.finding(
                    ctx, call,
                    'import_module("random") smuggles in the module-'
                    "global RNG; import random and construct a seeded "
                    "random.Random instead")

    def _check_resolved(self, ctx: FileContext, call: ast.Call,
                        module: str, symbol: str) -> Iterator[Finding]:
        if module != "random":
            return
        if symbol == "Random":
            if not call.args and not call.keywords:
                yield self.finding(
                    ctx, call,
                    "random.Random() without a seed argument seeds "
                    "from OS entropy; pass a seed derived from the "
                    "run's seed (e.g. derive_seed or "
                    "f\"stream:{sim.seed}\")")
        elif symbol == "SystemRandom":
            yield self.finding(
                ctx, call,
                "random.SystemRandom draws OS entropy and can never "
                "be reproduced; use a seeded random.Random")
        elif symbol == "seed":
            yield self.finding(
                ctx, call,
                "random.seed() mutates the shared module-global RNG; "
                "construct a private seeded random.Random instead")
        else:
            yield self.finding(
                ctx, call,
                f"random.{symbol}() draws from the module-global RNG "
                f"shared by every caller in the process; draw from a "
                f"seeded random.Random passed in (rng parameter)")
