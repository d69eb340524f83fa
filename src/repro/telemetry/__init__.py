"""Telemetry: the observability layer every subsystem reports through.

Three cooperating pieces (see DESIGN.md "Telemetry" for the rationale
and the overhead budget):

* :class:`MetricsRegistry` — process-wide counters / gauges / histograms
  with labels.  Aggregate "how many, how much" numbers: allocation
  passes, dirty-flag fast-path hits, probes sent, FEC recoveries.
* :class:`EventTrace` — append-only structured records with *both* the
  simulation clock and the wall clock, exported as JSON Lines.  The
  per-event "when exactly" timeline: mode transitions with cause,
  detections, repurposing windows, state transfers.
* :func:`phase_timer` — wall-clock profiling of named sections, feeding
  a labeled histogram (and optionally the trace).

Instrumented modules cache metric objects from the **process-wide
default registry** (:func:`metrics`) at import time; the default
:func:`trace` starts disabled so hot paths pay one attribute check until
a run opts in.  :func:`reset` zeroes both in place between runs —
cached metric references held by live components remain valid.

The package is dependency-free and imports nothing from the rest of
:mod:`repro`, so any layer (engine, allocator, protocol, boosters,
experiments) may use it without import cycles.
"""

from .registry import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                       MetricError, Metric, MetricsRegistry)
from .timers import PHASE_METRIC, PhaseTiming, phase_histogram, phase_timer
from .trace import NULL_TRACE, EventTrace, TraceEvent

__all__ = [
    "Counter", "DEFAULT_BUCKETS", "EventTrace", "Gauge", "Histogram",
    "Metric", "MetricError", "MetricsRegistry", "NULL_TRACE",
    "PHASE_METRIC", "PhaseTiming", "TraceEvent", "WALL_CLOCK_METRICS",
    "metrics", "phase_histogram", "phase_timer", "reset", "trace",
]

#: Metric families whose values are wall-clock durations and therefore
#: legitimately differ between byte-identical runs.  The determinism
#: gate (`scripts/check_sweep.py`) and the sweep runner's parity digest
#: exclude exactly these families — one list, imported everywhere, so
#: the exclusion can never drift (reprolint RPL007 enforces the single
#: definition).
WALL_CLOCK_METRICS = (PHASE_METRIC, "shard_barrier_seconds")

#: The process-wide default instances.  Created once and never replaced
#: (reset happens in place) so modules may cache them and their metrics.
_DEFAULT_REGISTRY = MetricsRegistry()
_DEFAULT_TRACE = EventTrace(enabled=False)


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _DEFAULT_REGISTRY


def trace() -> EventTrace:
    """The process-wide event trace (disabled until enabled)."""
    return _DEFAULT_TRACE


def reset() -> None:
    """Zero the default registry and empty the default trace, in place.

    Experiments call this between runs so exported snapshots cover one
    run only; tests call it for isolation.  Metric objects cached by
    instrumented modules stay registered and simply restart from zero.
    """
    _DEFAULT_REGISTRY.reset()
    _DEFAULT_TRACE.reset()
