"""Sharded region simulation with conservative boundary sync.

Splits one simulation across region workers (see DESIGN.md "Sharded
simulation").  There is one sync semantics: per-region allocators with
boundary-pin consensus at every barrier.  With ``n_regions=1`` the
result is byte-identical to :func:`run_single`; with more regions it is
an approximation (cut links are allocated by no region) whose results
never depend on the worker count.

* :mod:`repro.shard.partition` — METIS-style greedy edge-cut
  partitioning of a :class:`~repro.netsim.topology.Topology` into
  balanced regions with a symmetric boundary-link map.
* :mod:`repro.shard.scenario` — declarative, JSON-serializable
  workloads plus :func:`run_single`, the single-process reference every
  determinism claim is stated against.
* :mod:`repro.shard.region` — one :class:`RegionWorld` per region: a
  normal simulator + per-shard fluid allocator over a sub-topology.
* :mod:`repro.shard.workers` — resident worker processes: each region
  lives in one long-lived process for the whole run, built fresh there
  (or unpacked once on resume); the per-window wire carries only the
  outbox, boundary report and new sample records, never region state.
* :mod:`repro.shard.coordinator` — conservative time windows: simulate
  to the window end, exchange boundary packets and granted rates at the
  barrier, re-run the allocators with crossing flows pinned.  State
  serializes only when a checkpoint is due (``checkpoint_every``), into
  one fingerprinted :mod:`repro.checkpoint.format` container.

``python -m repro shard --regions N --workers K`` drives it from the
command line (:mod:`repro.shard.cli`).
"""

from .coordinator import run_sharded
from .partition import Partition, partition_topology
from .region import LinkSegment, PortalNode, RegionWorld, build_region
from .scenario import (ShardScenario, figure3_scenario, random_scenario,
                       run_single)
from .workers import ResidentRegionHost, ShardWorkerError

__all__ = [
    "LinkSegment", "Partition", "PortalNode", "RegionWorld",
    "ResidentRegionHost", "ShardScenario", "ShardWorkerError",
    "build_region", "figure3_scenario", "partition_topology",
    "random_scenario", "run_sharded", "run_single",
]
