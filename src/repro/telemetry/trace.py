"""Structured event tracing: typed, timestamped, append-only records.

Where the registry answers "how many / how much", the trace answers
"*when* did each thing happen" — which is what FastFlex's evaluation
actually argues about: probe-carried mode changes land within link RTTs,
detection windows overlap, repurposing downtime is bounded.  Every record
carries both the simulation clock (the time the event is *about*) and the
wall clock (profiling and cross-run correlation).

The trace is **disabled by default** and every ``emit`` call starts with
one attribute check, so instrumented hot paths pay near-zero cost until a
run opts in (``python -m repro ... --trace FILE`` or
:meth:`EventTrace.enable`).  Records are held in memory and exported as
JSON Lines — one object per line, streamable and greppable.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Iterator, List

#: Hard cap on retained events unless a capacity is chosen explicitly;
#: protects multi-minute packet-level runs from unbounded growth.
DEFAULT_CAPACITY = 1_000_000


class TraceEvent:
    """One structured record: a kind, two clocks, and free-form fields."""

    __slots__ = ("kind", "sim_time", "wall_time", "fields")

    def __init__(self, kind: str, sim_time: float, wall_time: float,
                 fields: Dict[str, Any]) -> None:
        self.kind = kind
        self.sim_time = sim_time
        self.wall_time = wall_time
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"kind": self.kind,
                                  "sim_time": self.sim_time,
                                  "wall_time": self.wall_time}
        record.update(self.fields)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceEvent({self.kind!r}, t={self.sim_time:.6f}, "
                f"{self.fields})")


class EventTrace:
    """Append-only event log with a shared context and JSONL export."""

    def __init__(self, enabled: bool = False,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.enabled = enabled
        self.capacity = capacity
        self.events: List[TraceEvent] = []
        self.dropped = 0
        #: Fields merged into every event (e.g. which system/run emits).
        self.context: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def enable(self) -> "EventTrace":
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False

    def set_context(self, **fields: Any) -> None:
        """Merge ``fields`` into every subsequently emitted event."""
        self.context.update(fields)

    def clear_context(self, *names: str) -> None:
        """Drop named context fields, or all of them when none given."""
        if not names:
            self.context.clear()
        for name in names:
            self.context.pop(name, None)

    # ------------------------------------------------------------------
    def emit(self, kind: str, sim_time: float, **fields: Any) -> None:
        """Record one event.  No-op (one attribute test) when disabled."""
        if not self.enabled:
            return
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        if self.context:
            merged = dict(self.context)
            merged.update(fields)
            fields = merged
        self.events.append(
            TraceEvent(kind, sim_time, time.time(), fields))

    # ------------------------------------------------------------------
    # Queries (for tests and experiments)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def kinds(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def between(self, t0: float, t1: float) -> List[TraceEvent]:
        """Events with ``t0 <= sim_time < t1`` (same half-open convention
        as :meth:`repro.netsim.monitor.TimeSeries.window`)."""
        return [e for e in self.events if t0 <= e.sim_time < t1]

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable full state, for the checkpoint globals
        bundle."""
        return {
            "enabled": self.enabled,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "context": dict(self.context),
            "events": [event.to_dict() for event in self.events],
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output in place (checkpoint
        restore: same object identity, new contents)."""
        self.enabled = bool(state["enabled"])
        self.capacity = int(state["capacity"])
        self.dropped = int(state["dropped"])
        self.context = dict(state["context"])
        events: List[TraceEvent] = []
        for record in state["events"]:
            fields = {key: value for key, value in record.items()
                      if key not in ("kind", "sim_time", "wall_time")}
            events.append(TraceEvent(record["kind"], record["sim_time"],
                                     record["wall_time"], fields))
        self.events = events

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all events and context; keep the enabled flag."""
        self.events.clear()
        self.context.clear()
        self.dropped = 0

    def to_jsonl(self) -> str:
        return "".join(json.dumps(e.to_dict(), sort_keys=True,
                                  default=_jsonable) + "\n"
                       for e in self.events)

    def write_jsonl(self, path: Any) -> int:
        """Write every event as one JSON object per line; returns the
        number of events written."""
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())
        return len(self.events)


def _jsonable(value: Any) -> Any:
    """Fallback serializer: tuples of node names, sets, objects with a
    ``name`` — degrade to something greppable rather than raising."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    name = getattr(value, "name", None)
    if name is not None:
        return name
    return repr(value)


#: Sentinel trace used when instrumented code runs with tracing off but a
#: caller wants an object to hand around unconditionally.
NULL_TRACE = EventTrace(enabled=False, capacity=1)
