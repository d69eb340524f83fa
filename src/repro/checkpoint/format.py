"""The on-disk checkpoint container: versioned, fingerprinted, atomic.

The sweep's per-task resume files (``tasks/<task_id>.ckpt``) are these
containers.  A container is a one-line ASCII JSON header followed by
one raw payload::

    {"fingerprint": "sha256:...", "magic": "repro-checkpoint",
     "meta": {...}, "payload_bytes": N, "version": 2}\n
    <N bytes: the payload>

The header stays human-readable (``head -1 file.ckpt`` tells you what a
file holds) while the payload is opaque bytes: a task record's JSON for
a sweep task, or any other blob, such as a ``pack_state`` one.
Every header field is type-checked and the fingerprint is the SHA-256
of the payload, so truncation, bit rot, trailing garbage and partially
written files are all detected before a caller sees a payload byte — a
corrupted checkpoint is rejected with :class:`CheckpointError`, never
silently restored.

Writes go through :func:`atomic_write`: a temp file beside the target,
fsynced, then moved into place with ``os.replace``.  A crash mid-write
(the whole point of checkpoints) therefore leaves either the previous
file or none, never a torn one.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Tuple, Union

MAGIC = "repro-checkpoint"
FORMAT_VERSION = 2

PathLike = Union[str, "os.PathLike[str]"]


class CheckpointError(RuntimeError):
    """Raised when a checkpoint cannot be written, read, or trusted."""


def fingerprint_payload(payload: bytes) -> str:
    return f"sha256:{hashlib.sha256(payload).hexdigest()}"


def atomic_write(path: PathLike, data: bytes) -> None:
    """Replace ``path`` with ``data`` so that readers see the old file or
    the new one, never a torn one: a same-directory temp file, fsynced,
    then ``os.replace``.  Raises ``OSError``; no temp file survives."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # only on failure before os.replace
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


def write_container(path: PathLike, payload: bytes,
                    meta: Dict[str, Any]) -> str:
    """Atomically write one checkpoint container; returns the fingerprint."""
    fingerprint = fingerprint_payload(payload)
    header = {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "payload_bytes": len(payload),
        "fingerprint": fingerprint,
        "meta": meta,
    }
    header_line = json.dumps(header, sort_keys=True) + "\n"
    try:
        atomic_write(path, header_line.encode("ascii") + payload)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
    return fingerprint


def read_header(path: PathLike) -> Dict[str, Any]:
    """Parse and validate only the header line (cheap inspection)."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            line = fh.readline(1 << 20)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not line.endswith(b"\n"):
        raise CheckpointError(
            f"{path}: missing or over-long header line - not a checkpoint "
            f"(or truncated inside the header)")
    try:
        header = json.loads(line.decode("ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise CheckpointError(f"{path}: bad magic - not a repro checkpoint")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})")
    for field, kind in (("payload_bytes", int), ("fingerprint", str),
                        ("meta", dict)):
        if field not in header:
            raise CheckpointError(f"{path}: header missing {field!r}")
        value = header[field]
        # bool is an int subclass; a size must be a real, non-negative int.
        if (not isinstance(value, kind) or isinstance(value, bool)
                or (kind is int and value < 0)):
            raise CheckpointError(
                f"{path}: header {field!r} is not a valid "
                f"{kind.__name__}: {value!r}")
    return header


def read_container(path: PathLike) -> Tuple[Dict[str, Any], bytes]:
    """Read and verify a container; returns ``(header, payload)``.

    The payload is length- and fingerprint-checked before it is
    returned, so callers may decode it without re-validating.
    """
    path = Path(path)
    header = read_header(path)
    size: int = header["payload_bytes"]
    try:
        with open(path, "rb") as fh:
            fh.readline(1 << 20)  # header, already validated
            found = os.fstat(fh.fileno()).st_size - fh.tell()
            # Sized from the file, never from the header alone: a forged
            # payload_bytes must not make this allocate.
            payload = fh.read(size) if found == size else b""
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if found < size:
        raise CheckpointError(
            f"{path}: truncated - expected {size} payload bytes, "
            f"found {found}")
    if found > size:
        raise CheckpointError(f"{path}: trailing garbage after payload")
    actual = fingerprint_payload(payload)
    if actual != header["fingerprint"]:
        raise CheckpointError(
            f"{path}: fingerprint mismatch - file is corrupt "
            f"(header {header['fingerprint']}, payload {actual})")
    return header, payload
