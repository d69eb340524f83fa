"""The sharded-run coordinator: one task per region.

:func:`run_sharded` partitions a :class:`ShardScenario`'s topology
(:func:`repro.shard.partition.partition_topology`), refuses any flow
whose path leaves its source host's region, and runs every region as
one task, :func:`_run_region`: build the region's
:class:`~repro.shard.region.RegionWorld`, simulate it to the horizon in
``window_s`` steps, and return its sample records, per-flow finals,
fluid counters and telemetry snapshot.  Regions share no link and no
flow, so no region waits on another (see DESIGN.md "Sharded
simulation").

With ``workers > 1`` the tasks run in a fork-context
:class:`~concurrent.futures.ProcessPoolExecutor`: the children inherit
the coordinator's full topology and :class:`WorkerInit`, and only a
region index goes out and a region's result comes back.  With
``workers == 1`` they run one after another in the caller's process,
whose telemetry and id sequences are restored afterwards.

Worker count never changes results, because each task starts from the
same process-global context wherever it runs: telemetry reset, and
every id sequence at the coordinator's base with the flow-id sequence
advanced by the flows earlier regions create (:func:`install_sequences`).
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import import_module
from multiprocessing import get_context
from typing import Any, Dict, List, Optional, Tuple

from .. import telemetry
from ..checkpoint import capture_globals, restore_globals
from ..netsim.engine import Simulator
from ..netsim.topology import Topology
from ..sweep.runner import stable_metrics
from ..telemetry import MetricsRegistry
from .partition import Partition, partition_topology
from .region import LinkKey, build_region, compute_paths, hosted_counts
from .scenario import ShardScenario, aggregate_samples, build_topology

__all__ = ["run_sharded"]

#: The sequence a region build consumes (one id per created flow).
_FLOW_SEQUENCE = "repro.netsim.flows:_flow_ids"

_MET = telemetry.metrics()
#: Wall-clock seconds the coordinator waits for every region's task.
#: Excluded from stable metrics — see ``repro.telemetry.WALL_CLOCK_METRICS``.
H_BARRIER = _MET.histogram(
    "shard_barrier_seconds",
    "wall-clock seconds per sharded window barrier",
    buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0))
#: Always zero: region state never crosses a process boundary.  The
#: family stays registered because bench's ``sim_digest`` hashes every
#: family's name and description.
_MET.counter(
    "shard_state_bytes_total",
    "serialized region-state bytes moved between coordinator and workers",
    labelnames=("direction",))
#: One ``"region"`` task per region.
C_MESSAGES = _MET.counter(
    "shard_messages_total",
    "coordinator<->worker protocol commands, by kind",
    labelnames=("kind",))


@dataclass
class WorkerInit:
    """Everything a region task needs besides the full topology."""

    scenario: ShardScenario
    partition: Partition
    paths: List[Tuple[LinkKey, ...]]
    #: ``capture_globals()["sequences"]`` at the coordinator's pre-build
    #: point: the common base every region's id sequences start from.
    base_sequences: Dict[str, Tuple[int, ...]]
    #: Per-region flow-id offset: prefix sums of ``hosted_counts``.
    flow_id_offsets: List[int]
    window_s: float


def install_sequences(base_sequences: Dict[str, Tuple[int, ...]],
                      flow_id_offset: int) -> None:
    """Set every global ID sequence to the coordinator's base, with the
    flow-id sequence advanced by ``flow_id_offset`` — the position a
    sequential build of the earlier regions would have reached."""
    for key, args in sorted(base_sequences.items()):
        module_name, attr = key.split(":")
        if key == _FLOW_SEQUENCE and flow_id_offset:
            args = (args[0] + flow_id_offset,) + tuple(args[1:])
        setattr(import_module(module_name), attr, itertools.count(*args))


#: ``(init, full)`` for :func:`_run_region`: set by the pool
#: initializer in each worker process, or around the inline loop.
_inputs: Optional[Tuple[WorkerInit, Topology]] = None


def _set_inputs(init: WorkerInit, full: Topology) -> None:
    global _inputs
    _inputs = (init, full)


def _run_region(region_index: int) -> Dict[str, Any]:
    """Build region ``region_index`` and simulate it to the horizon."""
    if _inputs is None:
        raise RuntimeError("a region task ran outside run_sharded")
    init, full = _inputs
    telemetry.reset()
    install_sequences(init.base_sequences,
                      init.flow_id_offsets[region_index])
    region = build_region(full, init.scenario, init.partition,
                          region_index, init.paths)
    horizon = init.scenario.duration_s
    t, windows = 0.0, 0
    while t < horizon:
        t = min(t + init.window_s, horizon)
        region.sim.run(until=t)
        windows += 1
    return {
        "records": region.sampler.records,
        "finals": region.home_finals(),
        "updates": region.fluid.updates,
        "allocation_passes": region.fluid.allocation_passes,
        "metrics": telemetry.metrics().snapshot(),
        "windows": windows,
        "pid": os.getpid(),
        "cpu_time_s": time.process_time(),
    }


def _run_pooled(init: WorkerInit, full: Topology, n_regions: int,
                workers: int) -> List[Dict[str, Any]]:
    """Every region as one task of a fork-context process pool."""
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=get_context("fork"),
                             initializer=_set_inputs,
                             initargs=(init, full)) as pool:
        # The pool forks on the first submit.  Move the coordinator's
        # heap (topology, paths) into the permanent GC generation first:
        # the children inherit it frozen, so their cyclic-GC passes never
        # rescan it — which would burn CPU and dirty copy-on-write pages
        # in every child.  Unfrozen again once the forks exist.
        gc.freeze()
        try:
            futures = [pool.submit(_run_region, region_index)
                       for region_index in range(n_regions)]
        finally:
            gc.unfreeze()
        return [future.result() for future in futures]


def _run_inline(init: WorkerInit, full: Topology,
                n_regions: int) -> List[Dict[str, Any]]:
    """Every region in turn in this process; the caller's telemetry and
    id sequences come back exactly as they were."""
    global _inputs
    base = capture_globals()
    _inputs = (init, full)
    try:
        return [_run_region(region_index)
                for region_index in range(n_regions)]
    finally:
        _inputs = None
        restore_globals(base)


def run_sharded(scenario: ShardScenario, n_regions: int, workers: int = 1,
                sync: str = "local", window_s: Optional[float] = None
                ) -> Dict[str, Any]:
    """Run ``scenario`` sharded into ``n_regions`` regions.

    Returns the stable result record.  It never depends on ``workers``;
    with ``n_regions=1`` its ``samples``/``flows``/``updates``/
    ``allocation_passes`` are byte-identical (via ``json.dumps(...,
    sort_keys=True)``) to :func:`repro.shard.scenario.run_single`, and
    with more regions they match it up to float rounding.  (The
    ``transport`` section reports wall/cpu accounting and is excluded
    from identity comparisons.)

    Raises ``ValueError``, before any region is built or any worker
    started, when a flow's path leaves its source host's region.
    ``sync`` is a retired option: ``"local"`` is the only semantics.
    ``window_s`` is the step each region advances its simulator by; it
    defaults to the scenario's sample period and must be finite and
    positive.  An exception raised inside a region's task reaches the
    caller with its type; a worker process that dies raises
    :class:`~concurrent.futures.process.BrokenProcessPool`.
    """
    if sync != "local":
        raise ValueError(
            f"sync={sync!r} was removed: 'local' is the only shard sync "
            f"semantics; for the single engine's exact bytes call "
            f"repro.shard.run_single(scenario)")
    if n_regions < 1:
        raise ValueError(f"n_regions must be >= 1, got {n_regions}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if window_s is None:
        window_s = scenario.sample_period_s
    if not 0.0 < window_s < math.inf:
        raise ValueError(
            f"window_s must be positive and finite, got {window_s}")

    cpu_start = time.process_time()
    full = build_topology(scenario, Simulator(seed=scenario.seed))
    partition = partition_topology(full, n_regions, seed=scenario.seed)

    # hosted_counts refuses crossing flows; its flow-id offsets
    # reproduce the sequential build's id assignment in every task.
    paths = compute_paths(full, scenario)
    offsets: List[int] = []
    total = 0
    for count in hosted_counts(scenario, partition, paths):
        offsets.append(total)
        total += count
    init = WorkerInit(scenario=scenario, partition=partition, paths=paths,
                      base_sequences=capture_globals()["sequences"],
                      flow_id_offsets=offsets, window_s=window_s)

    pooled = workers > 1 and n_regions > 1
    wait_start = time.perf_counter()
    if pooled:
        results = _run_pooled(init, full, n_regions,
                              min(workers, n_regions))
    else:
        results = _run_inline(init, full, n_regions)
    wait_s = time.perf_counter() - wait_start

    windows = {result["windows"] for result in results}
    if len(windows) != 1:
        raise RuntimeError(
            f"regions stepped different window counts {sorted(windows)}")
    finals: Dict[int, List[float]] = {}
    updates = passes = 0
    for result in results:
        finals.update(result["finals"])
        updates = max(updates, result["updates"])
        passes += result["allocation_passes"]
    missing = [idx for idx in range(len(scenario.flows))
               if idx not in finals]
    if missing:
        raise RuntimeError(
            f"flows {missing} were homed in no region - partition and "
            f"region construction disagree")
    merged = MetricsRegistry().merge(
        *(result["metrics"] for result in results)).snapshot()

    # process_time is cumulative per process, so a pool process's
    # figure is the one its last task reported; inline work is in the
    # coordinator's own figure.
    worker_cpu: Dict[int, float] = {}
    if pooled:
        for result in results:
            worker_cpu[result["pid"]] = max(
                worker_cpu.get(result["pid"], 0.0), result["cpu_time_s"])

    H_BARRIER.observe(wait_s)
    C_MESSAGES.labels("region").inc(n_regions)
    return {
        "mode": "sharded",
        "seed": scenario.seed,
        "samples": aggregate_samples(
            [result["records"] for result in results]),
        "flows": [finals[idx] for idx in range(len(scenario.flows))],
        "updates": updates,
        "allocation_passes": passes,
        "n_regions": n_regions,
        "workers": workers,
        "window_s": window_s,
        "cut_edges": partition.cut_edges,
        "merged_stable_metrics": stable_metrics(merged),
        # Wall/cpu accounting: informative, NOT part of any
        # byte-identity contract (tests pop it before comparing).
        "transport": {
            "windows": windows.pop(),
            "barrier_seconds_total": wait_s,
            "messages": {"region": n_regions},
            # Region state never crosses a process boundary.
            "state_bytes": {"from_workers": 0, "to_workers": 0},
            "cpu_time_s": {
                "coordinator": time.process_time() - cpu_start,
                "workers": [worker_cpu[pid] for pid in sorted(worker_cpu)],
            },
        },
    }
