"""World pickling and the on-disk resume container.

Public surface:

* :func:`pack_state` / :func:`unpack_state` — one live world (plus the
  process-wide telemetry and ID sequences) to one in-memory blob and
  back; the benchmark's checkpoint probe times this round trip.
* :func:`capture_globals` / :func:`restore_globals` — the process-wide
  half on its own, which the benchmark uses to start every measured
  unit from the same registry and ID sequences.
* :class:`CheckpointError` — every failure mode (unwritable, corrupt,
  truncated, version-mismatched, unpicklable state) raises this.
* :mod:`repro.checkpoint.format` — the versioned, fingerprinted,
  atomically written container that the sweep's per-task resume files
  use.

See DESIGN.md "Checkpoint format & restore contract" for what a blob
captures, the fingerprint scheme, and what invalidates a file.
"""

from .core import (GLOBAL_SEQUENCES, capture_globals, pack_state,
                   restore_globals, unpack_state)
from .format import FORMAT_VERSION, CheckpointError
from .pickler import CheckpointPickler, CheckpointUnpickler

__all__ = [
    "CheckpointError", "CheckpointPickler", "CheckpointUnpickler",
    "FORMAT_VERSION", "GLOBAL_SEQUENCES", "capture_globals",
    "pack_state", "restore_globals", "unpack_state",
]
