"""Context-aware enterprise access control booster (Poise-style, [56]).

Poise enforces BYOD access policies *from the network*, so a compromised
endpoint cannot bypass them: clients attach context (device posture,
user role, location) to their packets, and switches evaluate policies
against that context at line rate.  This is the paper's second
"in-network is indispensable" class — the network as the last line of
defense against compromised endpoints.

This module is a catalog declaration: the dataflow graph of resource
vectors that §3.1's joint analysis, sharing and placement read.  No
entry point deploys it, so it carries no runtime program.  Its
``quarantine`` mode (reject any packet *lacking* context) is declared
for the mode registry.
"""

from __future__ import annotations

from typing import List

from ..core.booster import Booster
from ..core.dataflow import DataflowGraph
from ..core.modes import ModeSpec
from ..core.ppm import PpmRole
from ..dataplane.resources import ResourceVector
from .base import logic_ppm, parser_ppm

ATTACK_TYPE = "endpoint_compromise"
QUARANTINE_MODE = "quarantine"

#: Custom header carrying the endpoint's attested context.
CONTEXT_HEADER = "context"


class PoiseBooster(Booster):
    """Context-aware access control as a FastFlex booster."""

    name = "poise"
    attack_types = (ATTACK_TYPE,)

    def always_on(self) -> bool:
        # Its one mode is quarantine, which is off by default.
        return False

    def modes(self) -> List[ModeSpec]:
        return [ModeSpec.of(QUARANTINE_MODE, ATTACK_TYPE,
                            boosters_on=(self.name,))]

    def dataflow(self) -> DataflowGraph:
        graph = DataflowGraph(self.name)
        graph.add_ppm(parser_ppm(
            self.name, "parser",
            base=("src", "dst", "proto", "dport"),
            custom=(CONTEXT_HEADER,)))
        graph.add_ppm(logic_ppm(
            self.name, "policy_table", PpmRole.DETECTION,
            ResourceVector(stages=2, sram_mb=0.1, tcam_kb=8, alus=2)))
        graph.add_ppm(logic_ppm(
            self.name, "verdict", PpmRole.MITIGATION,
            ResourceVector(stages=1, sram_mb=0.02, alus=1)))
        graph.add_edge("parser", "policy_table", weight=32)
        graph.add_edge("policy_table", "verdict", weight=2)
        return graph
