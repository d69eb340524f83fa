"""Parser field-set declarations for shareable pipeline components.

Parsers are the third class of shareable modules Section 3.1 names.  A
:class:`HeaderParser` declares which fields a booster needs off the
wire and what that costs; the analyzer merges every booster's parser
declaration into one union parser (``repro.core.equivalence.merge_parsers``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable

from .resources import ResourceVector

#: Fields extractable from the base packet (everything else must live in
#: the custom header mapping).
BASE_FIELDS: FrozenSet[str] = frozenset({
    "src", "dst", "proto", "sport", "dport", "ttl", "size_bytes",
    "tcp_flags", "kind",
})


@dataclass(frozen=True)
class HeaderParser:
    """A validated parser field set: base fields plus custom headers."""

    name: str
    base_fields: FrozenSet[str]
    custom_fields: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        unknown = self.base_fields - BASE_FIELDS
        if unknown:
            raise ValueError(
                f"parser {self.name!r} requests unknown base fields: "
                f"{sorted(unknown)}")

    @classmethod
    def of(cls, name: str, base: Iterable[str] = (),
           custom: Iterable[str] = ()) -> "HeaderParser":
        return cls(name, frozenset(base), frozenset(custom))

    def resource_requirement(self) -> ResourceVector:
        # Parsers run in the dedicated parser block of RMT hardware, not
        # in match-action stages; they cost only state memory.
        n_fields = len(self.base_fields) + len(self.custom_fields)
        return ResourceVector(stages=0, sram_mb=0.01 * n_fields,
                              tcam_kb=0, alus=0)
