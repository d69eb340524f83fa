"""A sampling profiler that attributes host time to layers.

``signal.setitimer(ITIMER_PROF)`` interrupts the main thread every few
milliseconds of CPU time; the handler walks the interrupted stack once
and charges the host time elapsed since the previous tick to

* the **leaf** — the innermost frame that lives under ``src/repro``
  (time inside the stdlib, numpy or C is thereby charged to the nearest
  ``repro`` frame that called it), and
* the **cause** — the frame directly under the engine's dispatch loop
  (``Simulator.run`` / ``Simulator.step`` / ``PeriodicProcess._fire``),
  i.e. the layer whose event brought the work about.  Outside the
  dispatch loop the outermost ``repro`` frame is the cause.

Python delivers signals between bytecodes, so ticks that fire during one
long C call collapse into a single handler call; weighting each call by
elapsed time instead of a fixed interval keeps such calls fully counted.
Nothing in ``src/`` is touched, and the sampler draws no random numbers
and schedules no simulator events, so a traced run simulates exactly
what an untraced run does (checked by digest in ``run.py``).
"""

from __future__ import annotations

from collections import defaultdict
import signal
import time
from typing import Dict, Optional, Tuple

from layers import bucket_of, layer_of, repro_relpath

_DISPATCH = frozenset({"run", "step", "_fire", "run_windows"})
_ENGINE = "netsim/engine.py"
#: The engine's own counter updates are not an event's doing.
_TELEMETRY = "telemetry/"


class Sampler:
    """Collects ``(leaf module, cause module) -> [seconds, samples]``."""

    def __init__(self, package_dir: str, interval_s: float = 0.001):
        self.package_dir = package_dir
        self.interval_s = interval_s
        #: (leaf relpath or None, cause relpath or None) -> [seconds, n]
        self.samples: Dict[Tuple[Optional[str], Optional[str]], list] = \
            defaultdict(lambda: [0.0, 0])
        self._relpaths: Dict[str, Optional[str]] = {}
        self._last = 0.0
        self._previous_handler = None

    def __enter__(self) -> "Sampler":
        self._previous_handler = signal.signal(signal.SIGPROF, self._tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous_handler)
        # The stretch after the last tick belongs to nobody in particular.
        tail = self.samples[(None, None)]
        tail[0] += time.perf_counter() - self._last

    def _tick(self, _signum, frame) -> None:
        now = time.perf_counter()
        elapsed = now - self._last
        self._last = now
        relpaths = self._relpaths
        leaf = cause = outermost = None
        below_dispatch = None
        while frame is not None:
            code = frame.f_code
            filename = code.co_filename
            try:
                rel = relpaths[filename]
            except KeyError:
                rel = relpaths[filename] = repro_relpath(
                    filename, self.package_dir)
            if rel is not None:
                if leaf is None:
                    leaf = rel
                outermost = rel
                if rel == _ENGINE and code.co_name in _DISPATCH:
                    # Walking outward: the last non-engine frame seen is
                    # the one this dispatch frame called into.
                    cause = below_dispatch if below_dispatch else _ENGINE
                elif rel != _ENGINE and not rel.startswith(_TELEMETRY):
                    below_dispatch = rel
            frame = frame.f_back
        cell = self.samples[(leaf, cause if cause else outermost)]
        cell[0] += elapsed
        cell[1] += 1

    # ------------------------------------------------------------------
    def total_seconds(self) -> float:
        return sum(cell[0] for cell in self.samples.values())

    def total_samples(self) -> int:
        return sum(cell[1] for cell in self.samples.values())

    def by_layer(self) -> Tuple[Dict[str, float], Dict[str, float], float]:
        """``(self seconds, inclusive seconds, unattributed seconds)``;
        the two dicts are keyed by layer and by ``boosters.<module>``."""
        self_s: Dict[str, float] = defaultdict(float)
        incl_s: Dict[str, float] = defaultdict(float)
        unattributed = 0.0
        for (leaf, cause), (seconds, _n) in self.samples.items():
            layer = layer_of(leaf) if leaf else None
            if layer is None:
                unattributed += seconds
                continue
            self_s[layer] += seconds
            bucket = bucket_of(leaf)
            if bucket:
                self_s[bucket] += seconds
            cause_layer = layer_of(cause) if cause else None
            incl_s[cause_layer or layer] += seconds
            cause_bucket = bucket_of(cause) if cause else None
            if cause_bucket:
                incl_s[cause_bucket] += seconds
        return dict(self_s), dict(incl_s), unattributed

    def dump(self) -> list:
        """The raw cells, for the ``--out`` result file."""
        return [{"leaf": leaf, "cause": cause, "seconds": cell[0],
                 "samples": cell[1]}
                for (leaf, cause), cell in sorted(
                    self.samples.items(),
                    key=lambda item: -item[1][0])]
