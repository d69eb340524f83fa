"""Covert-channel mitigation booster (NetWarden-style, [78]).

NetWarden defends against data exfiltration from compromised hosts via
network covert channels.  The storage-channel variant: a compromised
endpoint modulates a header field (TTL here) across the packets of one
flow to leak bits.  Detection watches per-flow header variability;
mitigation *normalizes* the field, destroying the channel while leaving
the flow functional.

This module is a catalog declaration: no entry point deploys it, so it
carries no runtime program.  It matters for §3.1's sharing story: its
per-flow connection table is declared with exactly the same semantic
parameters as the LFA detector's, so the joint analysis installs **one**
table serving both — the paper's "tables that maintain per-flow state"
sharing example, with real stage savings.
"""

from __future__ import annotations

from typing import List

from ..core.booster import Booster
from ..core.dataflow import DataflowGraph
from ..core.modes import ModeSpec
from ..core.ppm import PpmRole
from ..dataplane.resources import ResourceVector
from .base import flow_table_ppm, logic_ppm, parser_ppm
from .lfa_detector import TABLE_CAPACITY

ATTACK_TYPE = "covert_channel"
NORMALIZE_MODE = "covert_normalize"


class NetWardenBooster(Booster):
    """Covert-channel detection and normalization as a FastFlex booster."""

    name = "netwarden"
    attack_types = (ATTACK_TYPE,)

    def always_on(self) -> bool:
        return False  # its one mode, covert_normalize, is off by default

    def modes(self) -> List[ModeSpec]:
        return [ModeSpec.of(NORMALIZE_MODE, ATTACK_TYPE,
                            boosters_on=(self.name,))]

    def dataflow(self) -> DataflowGraph:
        graph = DataflowGraph(self.name)
        graph.add_ppm(parser_ppm(
            self.name, "parser",
            base=("src", "dst", "proto", "sport", "dport", "ttl")))
        # Deliberately identical semantic parameters to the LFA
        # detector's per-flow table: the analyzer shares one instance.
        graph.add_ppm(flow_table_ppm(
            self.name, "conn_state", capacity=TABLE_CAPACITY))
        graph.add_ppm(logic_ppm(
            self.name, "channel_detector", PpmRole.DETECTION,
            ResourceVector(stages=1, sram_mb=0.1, alus=2)))
        graph.add_ppm(logic_ppm(
            self.name, "normalizer", PpmRole.MITIGATION,
            ResourceVector(stages=1, sram_mb=0.02, alus=1)))
        graph.add_edge("parser", "conn_state", weight=13)
        graph.add_edge("conn_state", "channel_detector", weight=40)
        graph.add_edge("channel_detector", "normalizer", weight=8)
        return graph
