"""Sharded region simulation: independent regions, one task each.

Splits one fluid simulation on a random topology into regions (see
DESIGN.md "Sharded simulation").  Its one remaining caller is the
benchmark's churn workloads.  Every flow's path must lie inside its
source host's region, and :func:`run_sharded` refuses any scenario where
one does not; regions then share no link and no flow, so the result
matches :func:`run_single` up to float rounding (byte-identical with
``n_regions=1``) and never depends on the worker count.

* :mod:`repro.shard.partition` — METIS-style greedy edge-cut
  partitioning of a :class:`~repro.netsim.topology.Topology` into
  balanced regions.
* :mod:`repro.shard.scenario` — declarative random-topology workloads
  plus :func:`run_single`, the single-process reference every
  determinism claim is stated against.
* :mod:`repro.shard.region` — one :class:`RegionWorld` per region: a
  normal simulator + per-shard fluid allocator over a sub-topology.
* :mod:`repro.shard.coordinator` — :func:`run_sharded`: each region is
  built and simulated to the horizon as one task, in a fork-context
  process pool or inline, and only its results come back.
"""

from .coordinator import run_sharded
from .partition import Partition, partition_topology
from .region import RegionWorld, build_region
from .scenario import ShardScenario, random_scenario, run_single

__all__ = [
    "Partition", "RegionWorld", "ShardScenario",
    "build_region", "partition_topology",
    "random_scenario", "run_sharded", "run_single",
]
