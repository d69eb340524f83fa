"""Sharded region simulation with boundary-pin sync.

Splits one fluid simulation on a random topology across region workers
(see DESIGN.md "Sharded simulation").  Its one remaining caller is the
benchmark's churn workloads.  There is one sync semantics: per-region
allocators with boundary-pin consensus at every barrier.  With
``n_regions=1`` the result is byte-identical to :func:`run_single`; with
more regions it is an approximation (cut links are allocated by no
region) whose results never depend on the worker count.

* :mod:`repro.shard.partition` — METIS-style greedy edge-cut
  partitioning of a :class:`~repro.netsim.topology.Topology` into
  balanced regions with a symmetric boundary-link map.
* :mod:`repro.shard.scenario` — declarative random-topology workloads
  plus :func:`run_single`, the single-process reference every
  determinism claim is stated against.
* :mod:`repro.shard.region` — one :class:`RegionWorld` per region: a
  normal simulator + per-shard fluid allocator over a sub-topology.
* :mod:`repro.shard.workers` — resident worker processes: each region
  lives in one long-lived process for the whole run, built fresh there;
  the per-window wire carries only the pins in and the boundary report
  and new sample records out, never region state.
* :mod:`repro.shard.coordinator` — lockstep windows: simulate to the
  window end, fold the granted rates at the barrier into consensus
  pins, re-run the allocators with crossing flows pinned.
"""

from .coordinator import run_sharded
from .partition import Partition, partition_topology
from .region import LinkSegment, RegionWorld, build_region
from .scenario import ShardScenario, random_scenario, run_single
from .workers import ResidentRegionHost, ShardWorkerError

__all__ = [
    "LinkSegment", "Partition", "RegionWorld",
    "ResidentRegionHost", "ShardScenario", "ShardWorkerError",
    "build_region", "partition_topology",
    "random_scenario", "run_sharded", "run_single",
]
