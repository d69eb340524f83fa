"""RPL002 — wall-clock reads are telemetry's job, nowhere else's.

The sweep determinism contract (DESIGN.md "Sweep runner") promises that
every aggregate is a pure function of (spec, seeds).  A ``time.time()``
or ``datetime.now()`` anywhere in simulation or experiment logic leaks
the host's clock into results, breaking resume (checkpoints replayed at
a different wall time diverge) and cross-worker byte-identity.  The
telemetry package is the single sanctioned consumer of wall clocks —
its families are declared in ``WALL_CLOCK_METRICS`` and excluded from
determinism comparisons.  Elsewhere, simulation code must use
``sim.now``; genuinely wall-clock instrumentation goes through
``phase_timer`` or carries an inline ``# reprolint: disable=RPL002``
with a justification (see sweep/runner.py's task timing).
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from ..core import Finding, Rule
from ..imports import iter_calls
from ..project import ProjectContext, SourceFile

_WALL_CLOCK: Dict[str, Set[str]] = {
    "time": {"time", "time_ns", "perf_counter", "perf_counter_ns",
             "monotonic", "monotonic_ns", "process_time",
             "process_time_ns", "clock_gettime", "clock_gettime_ns"},
    "datetime.datetime": {"now", "utcnow", "today"},
    "datetime.date": {"today"},
}


class WallClockRule(Rule):
    code = "RPL002"
    name = "wall-clock-outside-telemetry"
    description = ("wall-clock reads outside repro/telemetry break sweep "
                   "resume and cross-worker reproducibility")
    exempt_paths: Tuple[str, ...] = ("repro/telemetry/",)

    def check_file(self, project: ProjectContext,
                   source: SourceFile) -> Iterator[Finding]:
        for call in iter_calls(source.tree):
            resolved = source.imports.resolve_call(call.func)
            if resolved is None:
                continue
            module, symbol = resolved
            # `from datetime import datetime; datetime.now()` resolves
            # to module="datetime", symbol-chain via the class: the
            # ImportMap returns ("datetime.datetime", "now") because the
            # class is a from-imported symbol extended by the attribute.
            if symbol in _WALL_CLOCK.get(module, ()):
                yield self.finding(
                    source, call,
                    f"{module}.{symbol}() reads the wall clock; use the "
                    f"simulation clock (sim.now) or route timing through "
                    f"repro.telemetry (phase_timer); if the wall clock "
                    f"is genuinely required, suppress inline with a "
                    f"justification")
