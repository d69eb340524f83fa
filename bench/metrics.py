"""How the count-type per-layer metrics are read.

``layer_counts`` turns one unit's telemetry snapshot and returned records
into the per-layer counts; their names, units and directions are declared
in ``BENCHMARK.json`` and nowhere else (``run.py`` refuses to report a
set of names that differs from the declared one).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: Read from ``run_sharded``'s returned record (``Unit.extra``), 0 on the
#: workloads that do not shard.
SHARD_RECORD_COUNTS = (
    "shard.windows", "shard.cut_edges", "shard.messages",
    "shard.state_bytes", "shard.barrier_s", "shard.coord_cpu_s",
    "shard.worker_cpu_s_sum", "shard.worker_cpu_s_max",
)


def family_total(snapshot: Dict[str, Any], name: str,
                 label: Optional[str] = None) -> float:
    """A counter family's value: one labeled child, or the unlabeled
    value plus every child.  Absent families read 0."""
    family = snapshot.get(name)
    if family is None:
        return 0.0
    labels = family.get("labels", {})
    if label is not None:
        return float(labels.get(label, 0.0))
    return float(family["value"]) + float(sum(labels.values()))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_counts(snapshot: Dict[str, Any], extra: Dict[str, float],
                 wall_s: float, packets: int) -> Dict[str, float]:
    """Every count-type metric of one unit.  ``extra`` holds the values
    that come from returned records (they win over the registry)."""
    def total(name: str, label: Optional[str] = None) -> float:
        return family_total(snapshot, name, label)

    events = total("sim_events_executed_total")
    batch_packets = total("dataplane_batch_packets_total")
    fallback = total("dataplane_batch_fallback_packets_total")
    hits = total("fluid_fastpath_hits_total")
    misses = total("fluid_fastpath_misses_total")
    sssp_hits = total("routing_cache_hits_total", "sssp")
    sssp_misses = total("routing_cache_misses_total", "sssp")
    counts = {
        "engine.events": events,
        "engine.events_cancelled": total("sim_events_cancelled_total"),
        "engine.us_per_event": _ratio(wall_s * 1e6, events),
        "links.packets_dropped": total("link_packets_dropped_total"),
        "links.pkt_rate": _ratio(packets, wall_s),
        "switch.batch_events": total("dataplane_batch_events_total"),
        "switch.batch_packets": batch_packets,
        "switch.fallback_invocations": fallback,
        "switch.fallback_per_pkt": _ratio(fallback, batch_packets),
        "boosters.packets_dropped": total("booster_packets_dropped_total"),
        "boosters.detections": total("booster_detections_total"),
        "boosters.reroutes_applied": total("booster_reroutes_applied_total"),
        "fluid.updates": total("fluid_updates_total"),
        "fluid.alloc_passes": total("fluid_allocation_passes_total"),
        "fluid.fastpath_hit_ratio": _ratio(hits, hits + misses),
        "fluid.freeze_rounds": total("fluid_freeze_rounds_total"),
        "routing.sssp_hit_ratio": _ratio(sssp_hits, sssp_hits + sssp_misses),
        "routing.sssp_recomputes": total("routing_sssp_recomputes_total"),
        "modes.probes_sent": total("mode_probes_sent_total"),
        "modes.probes_received": total("mode_probes_received_total"),
        "modes.probes_lost": total("mode_probes_lost_total"),
        "modes.transitions": total("mode_transitions_total"),
        "modes.suppressed": total("mode_changes_suppressed_total"),
    }
    counts.update(dict.fromkeys(SHARD_RECORD_COUNTS, 0.0))
    counts.update({name: value for name, value in extra.items()
                   if name in counts})
    workers = extra.get("shard.workers", 0.0)
    counts["shard.barrier_share"] = _ratio(counts["shard.barrier_s"], wall_s)
    counts["shard.parallel_eff"] = _ratio(
        counts["shard.worker_cpu_s_sum"], workers * wall_s)
    return counts
