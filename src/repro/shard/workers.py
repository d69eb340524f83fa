"""Resident region workers: live region state, message-sized windows.

Region state never moves on the window path:

* Each worker is one long-lived ``multiprocessing.Process`` connected by
  a duplex pipe, with a **sticky assignment** of regions (region ``r``
  lives in worker ``r % workers`` for the whole run — state never
  migrates).
* A region is built **fresh inside its worker** (or unpacked exactly
  once, on resume) and stays live between windows.  Per window the wire
  carries only ``("window", region, t_end, inject)`` in and
  ``(outbox, boundary report, new sample records)`` out — kilobytes,
  not the multi-megabyte world.
* State is serialized only on demand: ``("checkpoint", region)`` returns
  a pack_state blob for the coordinator's checkpoint file, and
  ``("collect", region)`` returns the final observables and telemetry
  snapshot at end of run.

Determinism is carried by two disciplines:

* **Per-region globals bundles.** A worker hosting several regions swaps
  the process-wide telemetry/sequence state around every window
  (:func:`~repro.checkpoint.core.restore_globals` before,
  :func:`~repro.checkpoint.core.capture_globals` after), so each
  region's metrics and ID sequences evolve exactly as if it ran alone —
  worker count cannot leak into results.
* **Explicit sequence installation.** Region builds consume global flow
  ids (allocator tie-breakers).  Each build first installs the
  coordinator's base sequences plus the :func:`hosted_counts` prefix sum
  of earlier regions, reproducing the id assignment a sequential inline
  build yields — so ``workers=K`` is byte-identical to ``workers=1``.

The coordinator (:mod:`repro.shard.coordinator`) drives workers in
waves — at most one outstanding command per pipe — and reuses the same
:class:`ResidentRegionHost` objects inline when ``workers == 1``, where
the transport cost drops to zero.
"""

from __future__ import annotations

import itertools
import time
import traceback
from dataclasses import dataclass, field
from importlib import import_module
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Optional, Tuple

from .. import telemetry
from ..checkpoint import (capture_globals, pack_state, restore_globals,
                          unpack_state)
from ..netsim.engine import Simulator
from ..netsim.packet import Packet
from .partition import Partition
from .region import LinkKey, RegionWorld, build_region
from .scenario import ShardScenario, build_topology

#: The sequence a region build consumes (one id per created flow).
_FLOW_SEQUENCE = "repro.netsim.flows:_flow_ids"

_MET = telemetry.metrics()
#: Wall-clock time per window barrier (dispatch of the first window
#: command until every region's result is folded in).  Excluded from
#: stable metrics — see ``repro.telemetry.WALL_CLOCK_METRICS``.
H_BARRIER = _MET.histogram(
    "shard_barrier_seconds",
    "wall-clock seconds per sharded window barrier",
    buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0))
C_STATE_BYTES = _MET.counter(
    "shard_state_bytes_total",
    "serialized region-state bytes moved between coordinator and workers",
    labelnames=("direction",))
C_MESSAGES = _MET.counter(
    "shard_messages_total",
    "coordinator<->worker protocol commands, by kind",
    labelnames=("kind",))


class ShardWorkerError(RuntimeError):
    """A resident shard worker died or failed; names region and window."""

    def __init__(self, worker_index: int, region_index: Optional[int],
                 window_end: Optional[float], detail: str):
        self.worker_index = worker_index
        self.region_index = region_index
        self.window_end = window_end
        where = (f"region {region_index}" if region_index is not None
                 else "control channel")
        when = (f" during the window ending at t={window_end}s"
                if window_end is not None else "")
        super().__init__(
            f"shard worker {worker_index} ({where}){when}: {detail}")


@dataclass
class WorkerInit:
    """Everything a worker needs to build its regions fresh.

    Plain-picklable by construction (no Topology, no live worlds): under
    the default ``fork`` start method it is inherited by reference for
    free, and under ``spawn`` it pickles in milliseconds.  Workers
    rebuild the full topology from the scenario themselves — cheaper
    than shipping a packed region, and the rebuild is discarded from
    telemetry by the per-region reset (matching the inline build, which
    also resets after the coordinator's own full-topology build).
    """

    scenario: ShardScenario
    partition: Partition
    paths: List[Tuple[LinkKey, ...]]
    exchange_packets: bool
    #: ``capture_globals()["sequences"]`` at the coordinator's pre-build
    #: point: the common base every region's id sequences start from.
    base_sequences: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    #: Per-region flow-id offset: prefix sums of ``hosted_counts``.
    flow_id_offsets: List[int] = field(default_factory=list)


def install_sequences(base_sequences: Dict[str, Tuple[int, ...]],
                      flow_id_offset: int) -> None:
    """Set every global ID sequence to the coordinator's base, with the
    flow-id sequence advanced by ``flow_id_offset`` — the position a
    sequential inline build would have reached before this region."""
    for key, args in sorted(base_sequences.items()):
        module_name, attr = key.split(":")
        if key == _FLOW_SEQUENCE and flow_id_offset:
            args = (args[0] + flow_id_offset,) + tuple(args[1:])
        setattr(import_module(module_name), attr, itertools.count(*args))


class ResidentRegionHost:
    """One live region plus its private globals bundle.

    All mutating entry points obey the swap discipline: restore this
    region's bundle, run, capture the bundle back.  The caller (worker
    main loop or inline coordinator) is responsible for the *outer*
    isolation — it must not expect the process-wide telemetry to mean
    anything while hosts are alive.
    """

    def __init__(self, region_index: int, region: RegionWorld,
                 bundle: Dict[str, Any]):
        self.region_index = region_index
        self.region = region
        #: capture_globals() as of this region's last quiescent point.
        self.bundle = bundle
        #: Sampler records already shipped to the coordinator.
        self._record_cursor = 0

    # -- construction ---------------------------------------------------
    @classmethod
    def build(cls, init: WorkerInit, region_index: int,
              full: Any) -> "ResidentRegionHost":
        """Build the region fresh (the fast path: no blob anywhere).

        ``full`` is the worker's full-topology rebuild, shared across
        the regions it hosts.  The reset + sequence install reproduce
        the exact context the sequential inline build gives each region.
        """
        telemetry.reset()
        offset = (init.flow_id_offsets[region_index]
                  if init.flow_id_offsets else 0)
        install_sequences(init.base_sequences, offset)
        region = build_region(full, init.scenario, init.partition,
                              region_index, init.paths,
                              exchange_packets=init.exchange_packets)
        return cls(region_index, region, capture_globals())

    @classmethod
    def from_blob(cls, region_index: int, blob: bytes
                  ) -> "ResidentRegionHost":
        """Unpack a checkpointed region — once, at resume (the only time
        the resident transport ever deserializes state)."""
        telemetry.reset()
        bundle: Dict[str, Any] = {}
        region = unpack_state(blob, globals_out=bundle)
        return cls(region_index, region, bundle)

    # -- per-window -----------------------------------------------------
    def window(self, t_end: float, inject: Optional[Dict[str, Any]]
               ) -> Tuple[List[Tuple[float, str, Packet]],
                          Dict[int, float],
                          List[Any]]:
        """Advance to ``t_end``; returns (outbox, boundary report, new
        sample records since the last window)."""
        restore_globals(self.bundle)
        region = self.region
        region.inject(inject)
        region.run_window(t_end)
        outbox = region.drain_outbox()
        report = region.boundary_report()
        self.bundle = capture_globals()
        records = region.sampler.records
        new_records = records[self._record_cursor:]
        self._record_cursor = len(records)
        return outbox, report, new_records

    # -- on demand ------------------------------------------------------
    def checkpoint(self) -> bytes:
        """Serialize the region with its own bundle (not the process's
        live globals, which may belong to another hosted region)."""
        return pack_state(self.region, globals_bundle=self.bundle)

    def collect(self) -> Dict[str, Any]:
        """Final observables: homed-flow finals, fluid counters, the
        region's telemetry snapshot (its bundle's — equal to what
        unpacking a checkpoint blob into a fresh registry would show),
        and any sample records not yet streamed through a window reply
        (a resumed-at-horizon region runs zero windows, so its blob's
        record history ships here)."""
        region = self.region
        records = region.sampler.records
        remaining = records[self._record_cursor:]
        self._record_cursor = len(records)
        return {
            "finals": region.home_finals(),
            "updates": region.fluid.updates,
            "allocation_passes": region.fluid.allocation_passes,
            "metrics": self.bundle["metrics"],
            "records": remaining,
        }


def region_worker_main(conn: Connection, worker_index: int,
                       init: WorkerInit) -> None:
    """A resident worker's entry point: serve protocol commands forever.

    One command is in flight per pipe at a time (the coordinator's wave
    discipline), so a plain recv/dispatch/send loop suffices.  Failures
    are reported as ``("error", traceback)`` replies; the loop keeps
    serving (its other regions are still healthy) and the coordinator
    decides whether to abort.
    """
    full = build_topology(init.scenario, Simulator(seed=init.scenario.seed))
    hosts: Dict[int, ResidentRegionHost] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # coordinator went away; nothing left to serve
        kind = message[0]
        if kind == "exit":
            return
        try:
            if kind == "build":
                region_index = message[1]
                hosts[region_index] = ResidentRegionHost.build(
                    init, region_index, full)
                reply: Any = ("ok", None)
            elif kind == "load":
                region_index, blob = message[1], message[2]
                hosts[region_index] = ResidentRegionHost.from_blob(
                    region_index, blob)
                reply = ("ok", None)
            elif kind == "window":
                _, region_index, t_end, inject = message
                reply = ("ok", hosts[region_index].window(t_end, inject))
            elif kind == "checkpoint":
                reply = ("ok", hosts[message[1]].checkpoint())
            elif kind == "collect":
                reply = ("ok", hosts[message[1]].collect())
            elif kind == "stats":
                # Wall-independent accounting for the bench record; the
                # coordinator stores it under the (non-stable) transport
                # section only.
                cpu = time.process_time()  # reprolint: disable=RPL002
                reply = ("ok", {"cpu_time_s": cpu})
            else:
                reply = ("error", f"unknown command {kind!r}")
        except Exception:  # surfaced coordinator-side as ShardWorkerError
            reply = ("error", traceback.format_exc())
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return
