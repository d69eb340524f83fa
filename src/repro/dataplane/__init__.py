"""Programmable data-plane primitives.

The building blocks boosters are made of: resource vectors and ledgers,
register arrays, probabilistic structures (count-min sketch, bloom
filter, HashPipe), per-flow tables with TCP tracking, parser field-set
declarations, match-action tables with stage layout, and the XOR-parity FEC
codec used by state transfer.
"""

from .batch import PacketBatch
from .bloom import BloomFilter
from .fec import (FecDecoder, FecEncoder, FecSymbol,
                  loss_survival_probability)
from .flow_table import FlowEntry, FlowTable, TcpState
from .hashpipe import HashPipe
from .parser import BASE_FIELDS, HeaderParser
from .pipeline import (MatchActionTable, MatchKind, PipelineLayoutError,
                       StageLayout, layout_tables)
from .registers import RegisterArray, salt_seed, stable_hash
from .resources import (DIMENSIONS, EDGE_SWITCH, TOFINO_LIKE,
                        ResourceExhausted, ResourceLedger, ResourceVector)
from .sketch import CountMinSketch

__all__ = [
    "BASE_FIELDS", "BloomFilter", "CountMinSketch", "DIMENSIONS",
    "EDGE_SWITCH", "FecDecoder", "FecEncoder", "FecSymbol", "FlowEntry",
    "FlowTable", "HashPipe", "HeaderParser",
    "MatchActionTable", "MatchKind", "PacketBatch", "PipelineLayoutError",
    "RegisterArray", "ResourceExhausted",
    "ResourceLedger", "ResourceVector", "StageLayout", "TOFINO_LIKE",
    "TcpState", "layout_tables",
    "loss_survival_probability", "salt_seed", "stable_hash",
]
