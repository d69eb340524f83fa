"""Engine checkpoint/restore and the always-on service mode.

Public surface:

* :func:`save_checkpoint` / :func:`load_checkpoint` — the file-level
  API: one :func:`pack_state` blob as the payload of a versioned,
  fingerprinted, atomically written container (see
  :mod:`repro.checkpoint.format`, whose ``read_header`` inspects a
  checkpoint without reading its payload).
* :class:`CheckpointError` — every failure mode (unwritable, corrupt,
  truncated, version-mismatched, unpicklable state) raises this.
* ``Simulator.snapshot()`` / ``Simulator.restore()`` — the engine-level
  wrappers (defined on :class:`repro.netsim.engine.Simulator`).
* ``python -m repro serve`` — the long-lived service driver
  (:mod:`repro.checkpoint.service`): live scenario injections, periodic
  auto-checkpointing, streaming JSONL telemetry.

See DESIGN.md "Checkpoint format & restore contract" for what a
checkpoint captures, the fingerprint scheme, and what invalidates one.
"""

from .core import (GLOBAL_SEQUENCES, capture_globals, load_checkpoint,
                   pack_state, restore_globals, save_checkpoint,
                   unpack_state)
from .format import FORMAT_VERSION, CheckpointError
from .pickler import CheckpointPickler, CheckpointUnpickler

__all__ = [
    "CheckpointError", "CheckpointPickler", "CheckpointUnpickler",
    "FORMAT_VERSION", "GLOBAL_SEQUENCES", "capture_globals",
    "load_checkpoint", "pack_state", "restore_globals", "save_checkpoint",
    "unpack_state",
]
