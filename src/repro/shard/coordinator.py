"""The sharded-run coordinator: conservative windows over region workers.

:func:`run_sharded` partitions a :class:`ShardScenario`'s topology
(:func:`repro.shard.partition.partition_topology`), places one
:class:`~repro.shard.region.RegionWorld` per region inside a *resident*
worker (:mod:`repro.shard.workers`), and advances all regions in
lockstep windows:

1. every region simulates to the window end (resident worker processes,
   or inline hosts when ``workers == 1``),
2. barrier: boundary packets and granted-rate reports are exchanged,
3. crossing flows are re-pinned to the cross-region consensus rate, and
   packet arrivals are scheduled into their destination regions.

The window length is bounded by the minimum boundary-link propagation
delay whenever packets cross regions: a packet sent during a window
cannot arrive before the window ends, so exchanging at the barrier never
schedules into a region's past — the classic conservative-time
guarantee (see DESIGN.md "Sharded simulation").

Region state stays **resident**: each region is built fresh inside its
sticky worker (region ``r`` lives in worker ``r % workers`` for the
whole run) and only small per-window messages cross the pipes.  Full
:func:`~repro.checkpoint.core.pack_state` serialization happens only on
demand — every ``checkpoint_every``-th barrier when a checkpoint
directory is set, and once per region at resume.  Worker count never
changes results (see the sequence-installation and globals-bundle
disciplines in :mod:`repro.shard.workers`).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import multiprocessing
import pickle
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..checkpoint import capture_globals, restore_globals
from ..checkpoint.format import read_container, write_container
from ..netsim.engine import Simulator
from ..sweep.runner import stable_metrics
from ..telemetry import MetricsRegistry
from .partition import partition_topology
from .region import BOUNDARY_HEADROOM, compute_paths, hosted_counts
from .scenario import ShardScenario, aggregate_samples, build_topology
from .workers import (C_MESSAGES, C_STATE_BYTES, H_BARRIER,
                      ResidentRegionHost, ShardWorkerError, WorkerInit,
                      region_worker_main)

__all__ = ["run_sharded", "ShardWorkerError"]

#: The one file of a shard checkpoint, inside ``checkpoint_dir``.
CHECKPOINT_NAME = "shard.ckpt"

#: Test seam: called as ``_barrier_hook(window_index, handles)`` after
#: every completed barrier (checkpoint included).  The crash-handling
#: tests use it to SIGKILL a worker between windows; ``handles`` is
#: empty when regions run inline.
_barrier_hook: Optional[Callable[[int, List["_WorkerHandle"]], None]] = None


def _consensus_pins(reports: List[Dict[int, float]]
                    ) -> Dict[int, Optional[float]]:
    """Fold per-region granted rates into one pin per crossing flow:
    the minimum any hosting region granted, plus growth headroom.  A
    zero minimum unpins (an inactive or starved flow must be able to
    start), letting demand cap the rate instead."""
    min_granted: Dict[int, float] = {}
    for report in reports:
        for idx, rate in report.items():
            if idx in min_granted:
                if rate < min_granted[idx]:
                    min_granted[idx] = rate
            else:
                min_granted[idx] = rate
    pins: Dict[int, Optional[float]] = {}
    for idx in sorted(min_granted):
        value = min_granted[idx]
        pins[idx] = (None if value <= 0.0
                     else value * (1.0 + BOUNDARY_HEADROOM))
    return pins


def _write_checkpoint(checkpoint_dir: Path, config: Dict[str, Any],
                      next_t: float, blobs: List[bytes],
                      pending: List[Dict[str, Any]]) -> None:
    """One fingerprinted container per barrier, atomically replaced:
    the run configuration and resume time in the header's ``meta``, the
    region blobs (each a ``pack_state`` blob carrying its own globals)
    plus pending injections as the payload."""
    payload = pickle.dumps((blobs, pending),
                           protocol=pickle.HIGHEST_PROTOCOL)
    write_container(checkpoint_dir / CHECKPOINT_NAME, payload,
                    dict(config, next_t=next_t))


def _load_checkpoint(checkpoint_dir: Path, config: Dict[str, Any]
                     ) -> Optional[Tuple[float, List[bytes],
                                         List[Dict[str, Any]]]]:
    """The resumable state at ``checkpoint_dir`` (None when there is no
    checkpoint yet).  The container is fingerprint-verified before any
    unpickling; one written by a different run configuration is
    refused."""
    path = checkpoint_dir / CHECKPOINT_NAME
    if not path.exists():
        return None
    header, payload = read_container(path)
    meta = dict(header["meta"])
    next_t = meta.pop("next_t", None)
    if meta != config:
        raise ValueError(
            f"checkpoint at {checkpoint_dir} was written by a different "
            f"shard configuration; refusing to resume from it")
    blobs, pending = pickle.loads(payload)
    return next_t, blobs, pending


def _empty_pending(n_regions: int) -> List[Dict[str, Any]]:
    return [{"pins": {}, "packets": []} for _ in range(n_regions)]


# ----------------------------------------------------------------------
# Transports: where the resident regions live
# ----------------------------------------------------------------------

class _Tally:
    """Coordinator-side transport accounting, kept as plain Python state
    while the run swaps telemetry bundles; flushed to the real metric
    families once, after the caller's globals are back in place."""

    def __init__(self) -> None:
        self.messages: Dict[str, int] = {}
        self.state_bytes: Dict[str, int] = {"to_workers": 0,
                                            "from_workers": 0}
        self.barrier_seconds: List[float] = []
        self.checkpoints_written = 0

    def message(self, kind: str, count: int = 1) -> None:
        self.messages[kind] = self.messages.get(kind, 0) + count

    def flush(self) -> None:
        for seconds in self.barrier_seconds:
            H_BARRIER.observe(seconds)
        for kind in sorted(self.messages):
            C_MESSAGES.labels(kind).inc(self.messages[kind])
        for direction in sorted(self.state_bytes):
            if self.state_bytes[direction]:
                C_STATE_BYTES.labels(direction).inc(
                    self.state_bytes[direction])


class _InlineTransport:
    """All regions resident in the coordinator process (``workers==1``).

    Zero serialization anywhere on the window path: the hosts run live
    :class:`RegionWorld` objects under the same per-region bundle-swap
    discipline worker processes use, inside one outer globals capture
    that is restored at :meth:`close` — the caller's telemetry and
    sequences come back exactly as they were.
    """

    handles: List["_WorkerHandle"] = []

    def __init__(self, init: WorkerInit, n_regions: int, full: Any,
                 tally: _Tally):
        self._init = init
        self._n_regions = n_regions
        self._full = full
        self._tally = tally
        self._hosts: Dict[int, ResidentRegionHost] = {}
        self._base = capture_globals()
        self._closed = False

    def build_regions(self) -> None:
        for region_index in range(self._n_regions):
            self._tally.message("build")
            self._hosts[region_index] = ResidentRegionHost.build(
                self._init, region_index, self._full)

    def load_regions(self, blobs: List[bytes]) -> None:
        for region_index, blob in enumerate(blobs):
            self._tally.message("load")
            self._hosts[region_index] = ResidentRegionHost.from_blob(
                region_index, blob)

    def run_window(self, t_end: float,
                   pending: List[Dict[str, Any]]) -> List[Tuple]:
        results = []
        for region_index in range(self._n_regions):
            self._tally.message("window")
            results.append(self._hosts[region_index].window(
                t_end, pending[region_index]))
        return results

    def checkpoint_regions(self) -> List[bytes]:
        blobs = []
        for region_index in range(self._n_regions):
            self._tally.message("checkpoint")
            blobs.append(self._hosts[region_index].checkpoint())
        return blobs

    def collect_regions(self) -> List[Dict[str, Any]]:
        collected = []
        for region_index in range(self._n_regions):
            self._tally.message("collect")
            collected.append(self._hosts[region_index].collect())
        return collected

    def worker_cpu_times(self) -> List[float]:
        return []  # the coordinator's own process_time covers inline work

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._hosts.clear()
            restore_globals(self._base)


class _WorkerHandle:
    """Coordinator-side end of one resident worker process."""

    def __init__(self, worker_index: int, init: WorkerInit):
        self.worker_index = worker_index
        parent_conn, child_conn = multiprocessing.Pipe()
        self.conn = parent_conn
        self.process = multiprocessing.Process(
            target=region_worker_main,
            args=(child_conn, worker_index, init),
            daemon=True)
        self.process.start()
        child_conn.close()


class _ProcessTransport:
    """Regions resident in ``workers`` long-lived processes.

    Sticky assignment: region ``r`` lives in worker ``r % workers`` for
    the whole run.  Commands are dispatched in *waves* — each worker's
    j-th region across all workers at once — so every pipe has at most
    one outstanding command while all workers stay busy.
    """

    def __init__(self, init: WorkerInit, n_regions: int, workers: int,
                 tally: _Tally):
        self._tally = tally
        self._regions_of = [list(range(w, n_regions, workers))
                            for w in range(workers)]
        # Move the coordinator's heap (topology, paths) into the
        # permanent GC generation before forking: forked workers inherit
        # it frozen, so their cyclic-GC passes never rescan it — which
        # would both burn CPU and dirty copy-on-write pages in every
        # child.  Unfrozen again in the parent once the forks exist.
        gc.freeze()
        try:
            self.handles = [_WorkerHandle(w, init) for w in range(workers)]
        finally:
            gc.unfreeze()

    def _waves(self) -> List[List[Tuple["_WorkerHandle", int]]]:
        depth = max(len(regions) for regions in self._regions_of)
        return [[(self.handles[w], self._regions_of[w][j])
                 for w in range(len(self.handles))
                 if j < len(self._regions_of[w])]
                for j in range(depth)]

    # -- protocol plumbing ---------------------------------------------
    def _send(self, handle: _WorkerHandle, message: Tuple,
              region_index: Optional[int],
              window_end: Optional[float]) -> None:
        self._tally.message(message[0])
        try:
            handle.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerError(
                handle.worker_index, region_index, window_end,
                f"pipe closed while sending {message[0]!r} "
                f"(exitcode={handle.process.exitcode}): {exc}") from exc

    def _recv(self, handle: _WorkerHandle, region_index: Optional[int],
              window_end: Optional[float]) -> Any:
        try:
            status, value = handle.conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardWorkerError(
                handle.worker_index, region_index, window_end,
                f"worker process died "
                f"(exitcode={handle.process.exitcode})") from exc
        if status != "ok":
            raise ShardWorkerError(handle.worker_index, region_index,
                                   window_end, str(value))
        return value

    def _fan(self, make_message: Callable[[int], Tuple],
             window_end: Optional[float] = None) -> List[Any]:
        """Run one command per region through the wave schedule; returns
        replies in region order."""
        n_regions = sum(len(regions) for regions in self._regions_of)
        results: List[Any] = [None] * n_regions
        for wave in self._waves():
            for handle, region_index in wave:
                self._send(handle, make_message(region_index),
                           region_index, window_end)
            for handle, region_index in wave:
                results[region_index] = self._recv(handle, region_index,
                                                   window_end)
        return results

    # -- transport interface -------------------------------------------
    def build_regions(self) -> None:
        self._fan(lambda region_index: ("build", region_index))

    def load_regions(self, blobs: List[bytes]) -> None:
        for blob in blobs:
            self._tally.state_bytes["to_workers"] += len(blob)
        self._fan(lambda region_index: ("load", region_index,
                                        blobs[region_index]))

    def run_window(self, t_end: float,
                   pending: List[Dict[str, Any]]) -> List[Tuple]:
        return self._fan(
            lambda region_index: ("window", region_index, t_end,
                                  pending[region_index]),
            window_end=t_end)

    def checkpoint_regions(self) -> List[bytes]:
        blobs = self._fan(lambda region_index: ("checkpoint", region_index))
        for blob in blobs:
            self._tally.state_bytes["from_workers"] += len(blob)
        return blobs

    def collect_regions(self) -> List[Dict[str, Any]]:
        return self._fan(lambda region_index: ("collect", region_index))

    def worker_cpu_times(self) -> List[float]:
        times = []
        for handle in self.handles:
            self._send(handle, ("stats",), None, None)
            times.append(self._recv(handle, None, None)["cpu_time_s"])
        return times

    def close(self) -> None:
        for handle in self.handles:
            try:
                handle.conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        for handle in self.handles:
            handle.process.join(timeout=5)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5)
            handle.conn.close()


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------

def run_sharded(scenario: ShardScenario, n_regions: int, workers: int = 1,
                sync: str = "local", window_s: Optional[float] = None,
                checkpoint_dir: Optional[Any] = None, resume: bool = False,
                exchange_packets: bool = False,
                checkpoint_every: int = 1) -> Dict[str, Any]:
    """Run ``scenario`` sharded into ``n_regions`` resident regions.

    Returns the stable result record.  It never depends on ``workers``;
    with ``n_regions=1`` its ``samples``/``flows``/``updates``/
    ``allocation_passes`` are byte-identical (via ``json.dumps(...,
    sort_keys=True)``) to :func:`repro.shard.scenario.run_single`, and
    with more regions it approximates it (cut links are allocated by no
    region).  (The ``transport`` section reports wall/cpu accounting
    and is excluded from identity comparisons.)

    ``sync`` is a retired option: ``"local"`` is the only semantics.

    ``checkpoint_every`` checkpoints at every Nth barrier (and always at
    the horizon) when ``checkpoint_dir`` is set; state is serialized
    only when a checkpoint is actually due.
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
    if checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}")

    cpu_start = time.process_time()  # reprolint: disable=RPL002
    full = build_topology(scenario, Simulator(seed=scenario.seed))
    partition = partition_topology(full, n_regions, seed=scenario.seed)

    min_delay = partition.min_boundary_delay(full)
    if window_s is None:
        window_s = scenario.sample_period_s
        if exchange_packets and min_delay is not None:
            window_s = min(window_s, min_delay)
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    if exchange_packets and min_delay is not None and window_s > min_delay:
        raise ValueError(
            f"window_s={window_s} exceeds the minimum boundary-link "
            f"delay {min_delay}: packets sent in a window could arrive "
            f"before it ends, violating the conservative-sync contract. "
            f"Shrink window_s to at most {min_delay}.")

    checkpoint_path: Optional[Path] = None
    config: Dict[str, Any] = {}
    if checkpoint_dir is not None:
        checkpoint_path = Path(checkpoint_dir)
        # A digest, because a large scenario's dict would overflow the
        # container's one-line header; only here, because computing it
        # costs a large scenario's run time and memory.
        canonical = json.dumps(scenario.to_dict(), sort_keys=True)
        config = {"scenario_sha256": hashlib.sha256(
                      canonical.encode("ascii")).hexdigest(),
                  "n_regions": n_regions, "window_s": window_s,
                  "exchange_packets": exchange_packets}
    resumed = None
    if resume:
        if checkpoint_path is None:
            raise ValueError("resume=True needs a checkpoint_dir")
        resumed = _load_checkpoint(checkpoint_path, config)

    blobs: Optional[List[bytes]] = None
    if resumed is not None:
        t, blobs, pending = resumed
    else:
        t = 0.0
        pending = _empty_pending(n_regions)

    # Fresh builds need paths and the flow-id offsets that reproduce the
    # sequential build's id assignment; resumed runs carry their ids in
    # the blobs.
    paths: List[Tuple[Tuple[str, str], ...]] = []
    offsets: List[int] = []
    if blobs is None:
        paths = compute_paths(full, scenario)
        total = 0
        for count in hosted_counts(partition, paths):
            offsets.append(total)
            total += count
    init = WorkerInit(scenario=scenario, partition=partition, paths=paths,
                      exchange_packets=exchange_packets,
                      base_sequences=capture_globals()["sequences"],
                      flow_id_offsets=offsets)

    tally = _Tally()
    if workers > 1 and n_regions > 1:
        transport: Any = _ProcessTransport(init, n_regions,
                                           min(workers, n_regions), tally)
    else:
        transport = _InlineTransport(init, n_regions, full, tally)

    record_lists: List[List[Any]] = [[] for _ in range(n_regions)]
    window_index = 0
    worker_cpu: List[float] = []
    collected: List[Dict[str, Any]] = []
    try:
        if blobs is None:
            transport.build_regions()
        else:
            transport.load_regions(blobs)

        while t < scenario.duration_s:
            t_end = min(t + window_s, scenario.duration_s)
            barrier_start = time.perf_counter()  # reprolint: disable=RPL002
            results = transport.run_window(t_end, pending)
            for index in range(n_regions):
                record_lists[index].extend(results[index][2])

            # Barrier: route boundary packets, re-pin crossing flows.
            pending = _empty_pending(n_regions)
            for outbox, _report, _records in results:
                for arrival, node_name, packet in outbox:
                    dest = partition.assignment[node_name]
                    pending[dest]["packets"].append(
                        (arrival, node_name, packet))
            pins = _consensus_pins([report for _, report, _ in results])
            for entry in pending:
                entry["pins"] = pins
            tally.barrier_seconds.append(
                time.perf_counter()  # reprolint: disable=RPL002
                - barrier_start)
            t = t_end
            window_index += 1

            if checkpoint_path is not None and (
                    window_index % checkpoint_every == 0
                    or t >= scenario.duration_s):
                _write_checkpoint(checkpoint_path, config, t,
                                  transport.checkpoint_regions(), pending)
                tally.checkpoints_written += 1
            if _barrier_hook is not None:
                _barrier_hook(window_index, transport.handles)

        collected = transport.collect_regions()
        worker_cpu = transport.worker_cpu_times()
    finally:
        transport.close()

    # Fold the per-region collections: sampler records were streamed in
    # per-window slices; finals, counters, and telemetry come once.
    finals: Dict[int, List[float]] = {}
    snapshots = []
    region_updates = 0
    region_passes = 0
    for region_index, entry in enumerate(collected):
        snapshots.append(entry["metrics"])
        record_lists[region_index].extend(entry["records"])
        for idx, final in entry["finals"]:
            finals[idx] = final
        region_updates = max(region_updates, entry["updates"])
        region_passes += entry["allocation_passes"]
    merged = MetricsRegistry().merge(*snapshots).snapshot()

    missing = [idx for idx in range(len(scenario.flows))
               if idx not in finals]
    if missing:
        raise RuntimeError(
            f"flows {missing} were homed in no region - partition and "
            f"region construction disagree")

    tally.flush()
    return {
        "mode": "sharded",
        "seed": scenario.seed,
        "samples": aggregate_samples(record_lists),
        "flows": [finals[idx] for idx in range(len(scenario.flows))],
        "updates": region_updates,
        "allocation_passes": region_passes,
        "n_regions": n_regions,
        "workers": workers,
        "window_s": window_s,
        "cut_edges": partition.cut_edges,
        "merged_stable_metrics": stable_metrics(merged),
        # Wall/cpu transport accounting: informative, NOT part of any
        # byte-identity contract (tests pop it before comparing).
        "transport": {
            "resident": True,
            "windows": window_index,
            "barrier_seconds_total": math.fsum(tally.barrier_seconds),
            "messages": {kind: tally.messages[kind]
                         for kind in sorted(tally.messages)},
            "state_bytes": dict(sorted(tally.state_bytes.items())),
            "checkpoints_written": tally.checkpoints_written,
            "cpu_time_s": {
                "coordinator": (
                    time.process_time()  # reprolint: disable=RPL002
                    - cpu_start),
                "workers": worker_cpu,
            },
        },
    }
