"""World pickling: capture everything a deterministic run needs, in memory.

:func:`pack_state` turns a live world into one blob and
:func:`unpack_state` turns it back; the benchmark's checkpoint probe
(``bench/probes.py``) times both on a Figure 3 world and checks that
the restored copy runs on exactly like the original.  The blob holds
two layers:

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
format & restore contract"); its headline property — pack mid-run,
unpack, finish, get the same series and stable metrics as a run that
never stopped — is held by ``tests/checkpoint``.
"""

from __future__ import annotations

import itertools
import pickle
from importlib import import_module
from typing import Any, Dict, Tuple

from .. import telemetry
from .format import CheckpointError
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


def pack_state(state: Any) -> bytes:
    """Serialize ``state`` plus the process-global bundle into one
    in-memory blob.  Packing mutates nothing, so a run that packs is
    observationally the run that does not.
    """
    return pickle.dumps((dump_state(capture_globals()), dump_state(state)),
                        protocol=pickle.HIGHEST_PROTOCOL)


def unpack_state(blob: bytes) -> Any:
    """Invert :func:`pack_state`: restore the globals bundle into this
    process (telemetry registry, trace, ID sequences), then unpickle and
    return the state graph.  (Restoring first is load-bearing: the state
    graph references metric families symbolically, and resolution
    requires them to exist — see :mod:`repro.checkpoint.pickler`.)
    Another container's payload (a sweep task's) raises
    :class:`CheckpointError`.
    """
    globals_blob, state_blob = load_state(blob)
    restore_globals(load_state(globals_blob))
    return load_state(state_blob)
