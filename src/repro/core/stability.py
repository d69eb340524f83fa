"""Stability guards against attacker-induced mode flapping (§6).

"We should defend against an attacker that intentionally causes mode
changes frequently."  An attacker who pulses traffic can otherwise make
the data plane thrash between modes, paying the transition cost over and
over.  The guard enforces three classic self-stabilization measures:

* **Minimum dwell** — once a mode is entered, it is held for at least
  ``min_dwell_s`` before another change for that attack type.
* **Rate limit** — at most ``max_changes`` transitions per sliding
  ``window_s`` window.
* **Flap lock** — when the rate limit trips, changes for the attack type
  are frozen for ``cooldown_s`` (the defense stays in its current —
  conservative — mode, which is safe: a defense mode held too long costs
  some path stretch, whereas flapping costs stability).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Tuple


@dataclass
class GuardStats:
    """Counters for observability and the stability ablation."""

    allowed: int = 0
    blocked_dwell: int = 0
    blocked_cooldown: int = 0
    locks_triggered: int = 0


class StabilityGuard:
    """Per-switch vetting of locally initiated mode changes."""

    def __init__(self, min_dwell_s: float = 0.5,
                 max_changes: int = 4, window_s: float = 5.0,
                 cooldown_s: float = 10.0):
        if min_dwell_s < 0 or window_s <= 0 or cooldown_s < 0:
            raise ValueError("guard intervals must be non-negative "
                             "(window strictly positive)")
        if max_changes < 1:
            raise ValueError(f"max_changes must be >= 1, got {max_changes}")
        self.min_dwell_s = min_dwell_s
        self.max_changes = max_changes
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self.stats = GuardStats()
        self._last_change: Dict[str, Tuple[float, str]] = {}
        self._history: Dict[str, Deque[float]] = {}
        self._locked_until: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def allow_change(self, attack_type: str, mode: str, now: float) -> bool:
        """Would a transition to ``mode`` be permitted right now?"""
        locked_until = self._locked_until.get(attack_type, 0.0)
        if now < locked_until:
            self.stats.blocked_cooldown += 1
            return False
        last = self._last_change.get(attack_type)
        if last is not None:
            last_time, last_mode = last
            if mode == last_mode:
                # Re-asserting the current mode is always fine (idempotent).
                return True
            if now - last_time < self.min_dwell_s:
                self.stats.blocked_dwell += 1
                return False
        return True

    def record_change(self, attack_type: str, mode: str, now: float) -> None:
        """Account an executed transition; may trip the flap lock."""
        self._last_change[attack_type] = (now, mode)
        history = self._history.setdefault(attack_type, deque())
        history.append(now)
        while history and history[0] < now - self.window_s:
            history.popleft()
        if len(history) > self.max_changes:
            self._locked_until[attack_type] = now + self.cooldown_s
            self.stats.locks_triggered += 1
            history.clear()
        self.stats.allowed += 1

    def __repr__(self) -> str:
        return (f"StabilityGuard(dwell={self.min_dwell_s}s, "
                f"{self.max_changes}/{self.window_s}s, "
                f"cooldown={self.cooldown_s}s, stats={self.stats})")
