"""Functional equivalence of PPMs despite implementation differences.

Section 3.1 asks: "boosters may implement the same function differently,
e.g., using different variable names and code structures, so how does
FastFlex tell whether two PPMs are shareable?"  The paper's answer cites
data-plane equivalence checking [24]: switch programs are simple enough
to decide equivalence.

Our IR makes that tractable by construction: a PPM's behaviour is fully
determined by its :class:`~repro.core.ppm.PpmSignature` — semantic kind
plus canonicalized parameters, with implementation-detail parameters
(``_``-prefixed) stripped.  Two modules written by different booster
authors with different names, different internal structure, or different
cosmetic parameters therefore canonicalize to the same signature when
and only when they compute the same function on packets.

Parsers get a relaxation: every booster's parser is merged into one
union parser (:func:`merge_parsers`), which serves them all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..dataplane.parser import HeaderParser
from .ppm import PpmKind, PpmSignature, PpmSpec


def merge_parsers(specs: List[PpmSpec], name: str = "") -> PpmSpec:
    """The union parser serving every spec in ``specs``."""
    if not specs:
        raise ValueError("need at least one parser spec to merge")
    for spec in specs:
        if spec.kind != PpmKind.PARSER:
            raise ValueError(f"{spec.qualified_name} is not a parser")
    base = frozenset().union(*(_parser_fields(s)[0] for s in specs))
    custom = frozenset().union(*(_parser_fields(s)[1] for s in specs))
    merged_parser = HeaderParser(
        name or "+".join(s.name for s in specs), base, custom)
    from .ppm import PpmRole
    return PpmSpec(
        # The booster prefix "shared." is added via the booster field;
        # strip any redundant prefix from the provided name.
        name=merged_parser.name.split(".")[-1],
        kind=PpmKind.PARSER,
        role=PpmRole.SUPPORT,
        requirement=merged_parser.resource_requirement(),
        params={"base_fields": tuple(sorted(base)),
                "custom_fields": tuple(sorted(custom))},
        factory=specs[0].factory,
        booster="shared",
    )


def _parser_fields(spec: PpmSpec) -> Tuple[frozenset, frozenset]:
    base = frozenset(spec.params.get("base_fields", ()))
    custom = frozenset(spec.params.get("custom_fields", ()))
    return base, custom


@dataclass
class EquivalenceClasses:
    """Partition of PPM specs into shareable groups."""

    #: signature -> member specs (order of first appearance preserved).
    groups: Dict[PpmSignature, List[PpmSpec]] = field(default_factory=dict)

    @classmethod
    def partition(cls, specs: List[PpmSpec]) -> "EquivalenceClasses":
        classes = cls()
        for spec in specs:
            classes.groups.setdefault(spec.signature(), []).append(spec)
        return classes
