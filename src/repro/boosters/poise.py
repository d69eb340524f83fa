"""Context-aware enterprise access control booster (Poise-style, [56]).

Poise enforces BYOD access policies *from the network*, so a compromised
endpoint cannot bypass them: clients attach context (device posture,
user role, location) to their packets, and switches evaluate policies
against that context at line rate.  This is the paper's second
"in-network is indispensable" class — the network as the last line of
defense against compromised endpoints.

Policies are context predicates over packet header fields plus the
``context`` custom header, compiled into a priority-ordered match-action
table.  Enforcement is always on for protected destinations; a
``quarantine`` mode additionally rejects any packet *lacking* context
(used when an intrusion is suspected).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.booster import Booster, GatedProgram
from ..core.dataflow import DataflowGraph
from ..core.modes import ModeSpec
from ..core.ppm import PpmRole
from ..dataplane.pipeline import MatchActionTable, MatchKind
from ..dataplane.resources import ResourceVector
from ..netsim.packet import Packet, PacketKind
from ..netsim.switch import Drop, ProgrammableSwitch, ProgramResult

ATTACK_TYPE = "endpoint_compromise"
QUARANTINE_MODE = "quarantine"

#: Custom header carrying the endpoint's attested context.
CONTEXT_HEADER = "context"


def _allow_any_context(ctx: Dict[str, Any]) -> bool:
    """Default predicate: every context passes.  A module-level function
    (not a lambda) so policies stay picklable — AccessPolicy instances
    are reachable from engine checkpoints (reprolint RPL010)."""
    return True


@dataclass(frozen=True)
class _RequireContext:
    """Predicate: the context carries every ``(key, value)`` pair.  A
    frozen callable rather than a closure, for the same picklability
    reason as :func:`_allow_any_context`."""

    required: Tuple[Tuple[str, Any], ...]

    def __call__(self, ctx: Dict[str, Any]) -> bool:
        return all(ctx.get(key) == value for key, value in self.required)


@dataclass(frozen=True)
class AccessPolicy:
    """One context-aware rule: predicate -> allow/deny."""

    name: str
    #: Destinations the rule protects; empty means every destination.
    protected_dsts: frozenset = frozenset()
    #: Predicate over the packet's context dict (missing context -> {}).
    predicate: Callable[[Dict[str, Any]], bool] = _allow_any_context
    allow: bool = True
    priority: int = 0

    @classmethod
    def require(cls, name: str, dsts: List[str],
                **required_context: Any) -> "AccessPolicy":
        """Allow only packets whose context carries the given values."""
        return cls(name=name, protected_dsts=frozenset(dsts),
                   predicate=_RequireContext(tuple(required_context.items())),
                   allow=True, priority=10)

    @classmethod
    def deny_all(cls, name: str, dsts: List[str]) -> "AccessPolicy":
        """The default-deny backstop for protected destinations."""
        return cls(name=name, protected_dsts=frozenset(dsts),
                   predicate=_allow_any_context, allow=False, priority=0)


class PoiseProgram(GatedProgram):
    """Per-switch policy enforcement point."""

    def __init__(self, booster: "PoiseBooster", name: str):
        table = MatchActionTable(f"{name}.policies",
                                 match_kind=MatchKind.TERNARY,
                                 max_entries=256, entry_bytes=32)
        super().__init__(booster.name, name,
                         ResourceVector(stages=2, sram_mb=0.1,
                                        tcam_kb=table.memory_requirement()
                                        .tcam_kb, alus=2))
        self.booster = booster
        self.packets_denied = 0
        self.packets_quarantined = 0

    def process(self, switch: ProgrammableSwitch,
                packet: Packet) -> ProgramResult:
        if packet.kind != PacketKind.DATA:
            return None
        policies = self.booster.policies_for(packet.dst)
        if not policies:
            return None
        context = packet.headers.get(CONTEXT_HEADER)
        quarantining = self.enabled_on(switch)  # mode gate = quarantine
        if context is None:
            if quarantining:
                self.packets_quarantined += 1
                return Drop("poise_no_context")
            context = {}
        verdict = self.booster.evaluate(packet.dst, context)
        if not verdict:
            self.packets_denied += 1
            return Drop("poise_policy_denied")
        return None

    def export_state(self) -> Dict:
        return {"packets_denied": self.packets_denied,
                "packets_quarantined": self.packets_quarantined}

    def import_state(self, state: Dict) -> None:
        self.packets_denied = state.get("packets_denied", 0)
        self.packets_quarantined = state.get("packets_quarantined", 0)


class PoiseBooster(Booster):
    """Context-aware access control as a FastFlex booster."""

    name = "poise"
    attack_types = (ATTACK_TYPE,)

    def __init__(self, policies: Optional[List[AccessPolicy]] = None):
        self.policies: List[AccessPolicy] = list(policies or [])
        self.programs: Dict[str, PoiseProgram] = {}

    # ------------------------------------------------------------------
    # Policy management (the "control plane" of the booster)
    # ------------------------------------------------------------------
    def add_policy(self, policy: AccessPolicy) -> AccessPolicy:
        self.policies.append(policy)
        return policy

    def policies_for(self, dst: str) -> List[AccessPolicy]:
        return [p for p in self.policies
                if not p.protected_dsts or dst in p.protected_dsts]

    def evaluate(self, dst: str, context: Dict[str, Any]) -> bool:
        """Highest-priority matching rule wins; default allow when no
        rule protects the destination."""
        applicable = self.policies_for(dst)
        if not applicable:
            return True
        matching = [p for p in applicable if p.predicate(context)]
        if not matching:
            return False  # protected destination, nothing granted access
        best = max(matching, key=lambda p: p.priority)
        return best.allow

    # ------------------------------------------------------------------
    def always_on(self) -> bool:
        # Base enforcement runs unconditionally (``process`` is not mode
        # gated); the gate — ``enabled_on`` — means the *quarantine*
        # mode specifically, so the booster must not be always-on.
        return False

    def modes(self) -> List[ModeSpec]:
        return [ModeSpec.of(QUARANTINE_MODE, ATTACK_TYPE,
                            boosters_on=(self.name,))]

    def dataflow(self) -> DataflowGraph:
        graph = DataflowGraph(self.name)
        from .base import logic_ppm, parser_ppm
        graph.add_ppm(parser_ppm(
            self.name, "parser",
            base=("src", "dst", "proto", "dport"),
            custom=(CONTEXT_HEADER,)))
        graph.add_ppm(logic_ppm(
            self.name, "policy_table", PpmRole.DETECTION,
            ResourceVector(stages=2, sram_mb=0.1, tcam_kb=8, alus=2),
            factory=self._make_program))
        graph.add_ppm(logic_ppm(
            self.name, "verdict", PpmRole.MITIGATION,
            ResourceVector(stages=1, sram_mb=0.02, alus=1)))
        graph.add_edge("parser", "policy_table", weight=32)
        graph.add_edge("policy_table", "verdict", weight=2)
        return graph

    def _make_program(self, switch: ProgrammableSwitch) -> PoiseProgram:
        program = PoiseProgram(self, f"{self.name}.policy_table")
        self.programs[switch.name] = program
        return program
