"""Engine checkpoint/restore: capture everything a deterministic run needs.

``save_checkpoint`` writes one :func:`pack_state` blob as the payload of
one container (see :mod:`repro.checkpoint.format`).  The blob holds two
layers:

* **Simulation state** — an arbitrary picklable object graph rooted at
  whatever the caller passes (typically a
  :class:`~repro.experiments.figure3.Figure3World` or a bare
  :class:`~repro.netsim.engine.Simulator`).  Bound-method callbacks in
  the event queue pull in the entire reachable world: topology, links,
  routing cache, fluid allocator, flow tables, sketches, bloom filters,
  mode-protocol timers, attacker state, and every RNG — pickled with
  exact heap order and tie-break sequence numbers.
* **Globals** — the process-wide telemetry registry snapshot and trace
  state (captured by value here and referenced symbolically from inside
  the state graph, see :mod:`repro.checkpoint.pickler`), plus the
  module-level ID generators (``flow_id``/``pkt_id``/transfer/trace
  ids).  These are process-wide ``itertools.count`` objects that the
  pickled world does *not* own; without capturing them a restored
  process would re-issue IDs from 1 and diverge from an uninterrupted
  run the moment a new flow or packet is created (flow IDs are TE
  tie-breakers, so this is behavior, not cosmetics).

:func:`unpack_state` inverts the layers in order: globals first (so
metric references resolve against restored families), then the state
graph.  The restore contract is documented in DESIGN.md ("Checkpoint
format & restore contract"); the headline property — kill -9 mid-run,
restore, finish, get byte-identical stable metrics and figure outputs —
is enforced by ``scripts/check_restore.py`` in CI.
"""

from __future__ import annotations

import itertools
import pickle
from importlib import import_module
from typing import Any, Dict, Optional, Tuple

from .. import telemetry
from .format import (CheckpointError, PathLike, read_container,
                     write_container)
from .pickler import dump_state, load_state

#: Module-level ID generators that are part of a run's deterministic
#: state but live outside any picklable object graph.  Every entry is
#: (module, attribute); the attribute must be an ``itertools.count``.
GLOBAL_SEQUENCES: Tuple[Tuple[str, str], ...] = (
    ("repro.core.state_transfer", "_transfer_ids"),
    ("repro.netsim.flows", "_flow_ids"),
    ("repro.netsim.packet", "_packet_ids"),
    ("repro.netsim.traceroute", "_trace_ids"),
)


def _count_args(counter: Any) -> Tuple[int, ...]:
    """The constructor args that recreate ``counter`` at its current
    position, read without consuming a value."""
    cls, args = counter.__reduce__()[:2]
    if cls is not itertools.count:
        raise CheckpointError(
            f"global sequence is a {type(counter).__name__}, "
            f"expected itertools.count")
    return tuple(args)


def capture_globals() -> Dict[str, Any]:
    """Snapshot process-wide deterministic state: telemetry + sequences."""
    sequences = {}
    for module_name, attr in GLOBAL_SEQUENCES:
        module = import_module(module_name)
        sequences[f"{module_name}:{attr}"] = _count_args(
            getattr(module, attr))
    return {
        "metrics": telemetry.metrics().snapshot(),
        "trace": telemetry.trace().state_dict(),
        "sequences": sequences,
    }


def restore_globals(bundle: Dict[str, Any]) -> None:
    """Restore a :func:`capture_globals` bundle into this process."""
    telemetry.metrics().restore_snapshot(bundle["metrics"])
    telemetry.trace().restore_state(bundle["trace"])
    sequences = bundle["sequences"]
    for module_name, attr in GLOBAL_SEQUENCES:
        key = f"{module_name}:{attr}"
        if key not in sequences:
            raise CheckpointError(
                f"checkpoint globals bundle missing sequence {key!r} - "
                f"written by an incompatible build?")
        module = import_module(module_name)
        setattr(module, attr, itertools.count(*sequences[key]))


def save_checkpoint(path: PathLike, state: Any,
                    meta: Optional[Dict[str, Any]] = None) -> str:
    """Write one checkpoint atomically; returns its fingerprint.

    ``state`` is any picklable object graph (checkpoint-pickling rules
    apply: telemetry by reference, no closures).  ``meta`` is embedded
    verbatim in the human-readable header — callers put the simulation
    clock, event count, seed, and scenario identity there.  Saving
    never mutates simulation or telemetry state, so checkpointing is
    observationally free: a run that checkpoints N times is
    byte-identical to one that never does.
    """
    return write_container(path, pack_state(state), dict(meta or {}))


def pack_state(state: Any,
               globals_bundle: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialize ``state`` plus the process-global bundle into one
    in-memory blob — the payload of an engine checkpoint and the wire
    format the sharded coordinator uses for region checkpoints and final
    state collection.  Packing mutates nothing.

    ``globals_bundle`` lets a caller that already holds a
    :func:`capture_globals` snapshot (e.g. a resident region worker
    swapping per-region bundles) embed it without re-capturing —
    required when the live process globals are *not* the ones that
    belong with ``state``.
    """
    if globals_bundle is None:
        globals_bundle = capture_globals()
    return pickle.dumps((dump_state(globals_bundle), dump_state(state)),
                        protocol=pickle.HIGHEST_PROTOCOL)


def unpack_state(blob: bytes,
                 globals_out: Optional[Dict[str, Any]] = None) -> Any:
    """Invert :func:`pack_state`: restore the globals bundle into this
    process (telemetry registry, trace, ID sequences), then unpickle and
    return the state graph.  (Restoring first is load-bearing: the state
    graph references metric families symbolically, and resolution
    requires them to exist — see :mod:`repro.checkpoint.pickler`.)
    Another container's payload (a shard checkpoint's, a sweep task's)
    raises :class:`CheckpointError`.

    When ``globals_out`` is given, the embedded bundle is also copied
    into it — so a caller that swaps per-region globals bundles (the
    resident shard workers) can hold the blob's bundle without paying a
    second :func:`capture_globals`.
    """
    globals_blob, state_blob = load_state(blob)
    bundle = load_state(globals_blob)
    restore_globals(bundle)
    if globals_out is not None:
        globals_out.update(bundle)
    return load_state(state_blob)


def load_checkpoint(path: PathLike) -> Tuple[Any, Dict[str, Any]]:
    """Verify, restore globals, and unpickle a checkpoint.

    Returns ``(state, meta)``.  The process-wide telemetry registry,
    trace, and global ID sequences are restored as a side effect —
    after this call the process is, for every deterministic observable,
    the process that wrote the checkpoint.
    """
    header, payload = read_container(path)
    return unpack_state(payload), dict(header["meta"])
