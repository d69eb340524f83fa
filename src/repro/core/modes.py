"""The multimode data plane abstraction (Figure 2).

The paper's key abstraction: each switch is in *modes* — DEFAULT
normally, attack-specific defense modes upon detection.  Modes are scoped
per *attack type*, so mixed-vector attacks activate co-existing modes
("different modes at different regions of the network"), each with its
own epoch counter for ordering distributed updates.

A :class:`ModeSpec` names which boosters a mode turns on; a
:class:`ModeTable` is the per-switch runtime state; booster programs gate
themselves on ``table.booster_enabled(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

#: The quiescent mode every attack type rests in.
DEFAULT_MODE = "default"


@dataclass(frozen=True)
class ModeSpec:
    """A named defense mode: which boosters it enables."""

    name: str
    attack_type: str
    boosters_on: FrozenSet[str]
    #: Higher-priority modes win if two modes of one attack type race
    #: with equal epochs (deterministic tie break).
    priority: int = 0

    @classmethod
    def of(cls, name: str, attack_type: str,
           boosters_on: Iterable[str], priority: int = 0) -> "ModeSpec":
        return cls(name, attack_type, frozenset(boosters_on), priority)


class ModeRegistry:
    """All modes known to a deployment, keyed by (attack_type, name)."""

    def __init__(self) -> None:
        self._modes: Dict[Tuple[str, str], ModeSpec] = {}
        #: Boosters always on regardless of mode (e.g. detectors in the
        #: default mode — Figure 2a: "only LFA detectors are turned on").
        self.always_on: Set[str] = set()

    def register(self, spec: ModeSpec) -> ModeSpec:
        key = (spec.attack_type, spec.name)
        if key in self._modes:
            raise ValueError(f"mode {spec.name!r} for attack type "
                             f"{spec.attack_type!r} already registered")
        if spec.name == DEFAULT_MODE:
            raise ValueError(f"{DEFAULT_MODE!r} is implicit; do not register it")
        self._modes[key] = spec
        return spec

    def get(self, attack_type: str, name: str) -> ModeSpec:
        if name == DEFAULT_MODE:
            return ModeSpec.of(DEFAULT_MODE, attack_type, ())
        try:
            return self._modes[(attack_type, name)]
        except KeyError:
            raise KeyError(
                f"unknown mode {name!r} for attack type {attack_type!r}; "
                f"known: {sorted(self._modes)}") from None

    def attack_types(self) -> List[str]:
        return sorted({attack for (attack, _) in self._modes})


#: Listener signature: (attack_type, old_mode, new_mode, epoch).
ModeListener = Callable[[str, str, str, int], None]


class ModeTable:
    """Per-switch mode state with epoch-ordered updates.

    Epochs make the distributed protocol idempotent and monotone: an
    update applies iff its epoch exceeds the locally known epoch for
    that attack type (ties broken by mode priority, then name, so all
    switches converge on identical state from identical message sets).
    """

    def __init__(self, registry: ModeRegistry):
        self.registry = registry
        self._current: Dict[str, str] = {}   # attack_type -> mode name
        self._epochs: Dict[str, int] = {}    # attack_type -> epoch
        self._listeners: List[ModeListener] = []
        self.changes_applied = 0

    # ------------------------------------------------------------------
    def on_change(self, listener: ModeListener) -> None:
        self._listeners.append(listener)

    def mode_for(self, attack_type: str) -> str:
        return self._current.get(attack_type, DEFAULT_MODE)

    def epoch_for(self, attack_type: str) -> int:
        return self._epochs.get(attack_type, 0)

    def next_epoch(self, attack_type: str) -> int:
        return self.epoch_for(attack_type) + 1

    def active_modes(self) -> Dict[str, str]:
        """Non-default modes per attack type (co-existing modes)."""
        return {attack: mode for attack, mode in self._current.items()
                if mode != DEFAULT_MODE}

    def booster_enabled(self, booster: str) -> bool:
        """Is any active mode (or the always-on set) enabling the booster?"""
        if booster in self.registry.always_on:
            return True
        for attack_type, mode_name in self._current.items():
            if mode_name == DEFAULT_MODE:
                continue
            spec = self.registry.get(attack_type, mode_name)
            if booster in spec.boosters_on:
                return True
        return False

    # ------------------------------------------------------------------
    def apply(self, attack_type: str, mode_name: str, epoch: int) -> bool:
        """Apply an update if it is newer; returns True when state changed.

        Equal epochs resolve deterministically by (priority, name) of the
        candidate vs. current mode, so concurrent same-epoch updates
        converge identically everywhere.
        """
        self.registry.get(attack_type, mode_name)  # validate
        current_epoch = self.epoch_for(attack_type)
        if epoch < current_epoch:
            return False
        if epoch == current_epoch:
            current = self.mode_for(attack_type)
            if current == mode_name:
                return False
            current_rank = self._rank(attack_type, current)
            candidate_rank = self._rank(attack_type, mode_name)
            if candidate_rank <= current_rank:
                return False
        old = self.mode_for(attack_type)
        self._current[attack_type] = mode_name
        self._epochs[attack_type] = epoch
        self.changes_applied += 1
        for listener in self._listeners:
            listener(attack_type, old, mode_name, epoch)
        return True

    def _rank(self, attack_type: str, mode_name: str) -> Tuple[int, str]:
        if mode_name == DEFAULT_MODE:
            return (-1, DEFAULT_MODE)
        spec = self.registry.get(attack_type, mode_name)
        return (spec.priority, spec.name)

    def __repr__(self) -> str:
        return f"ModeTable({self._current}, epochs={self._epochs})"


@dataclass
class ModeChangeEvent:
    """One observed mode change somewhere in the network."""

    time: float
    switch: str
    attack_type: str
    old_mode: str
    new_mode: str
    epoch: int


class ModeEventBus:
    """Network-wide observer of mode changes (for runtimes and tests)."""

    def __init__(self) -> None:
        self.events: List[ModeChangeEvent] = []

    def publish(self, event: ModeChangeEvent) -> None:
        self.events.append(event)

    def switches_in_mode(self, attack_type: str, mode: str) -> Set[str]:
        """Switches whose *latest* event for the attack type is ``mode``."""
        latest: Dict[str, ModeChangeEvent] = {}
        for event in self.events:
            if event.attack_type == attack_type:
                latest[event.switch] = event
        return {sw for sw, ev in latest.items() if ev.new_mode == mode}

    def first_activation(self, attack_type: str,
                         mode: str) -> Optional[ModeChangeEvent]:
        for event in self.events:
            if event.attack_type == attack_type and event.new_mode == mode:
                return event
        return None
