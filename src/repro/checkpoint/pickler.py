"""Checkpoint pickling: simulation state by value, telemetry by reference.

World objects hold references into the process-wide telemetry layer —
``Monitor`` caches labeled gauge children, components keep the default
:class:`~repro.telemetry.MetricsRegistry` or :class:`EventTrace` as an
attribute.  Pickling those by value would be doubly wrong: the registry
owns a ``threading.Lock`` (unpicklable), and a restored *copy* of a
metric would silently diverge from the live registry the rest of the
process keeps incrementing.

Instead the checkpoint pickler serializes every telemetry object that
belongs to the process-wide layer as a symbolic reference (a pickle
"persistent id"), and the unpickler resolves references against the
restoring process's own telemetry layer.  The registry's *values* travel
separately in the checkpoint's globals bundle (see
:mod:`repro.checkpoint.core`), which is restored before the state
graph is unpickled — so by the time a reference resolves, the family
it names exists and carries the checkpointed value.

Metric objects owned by isolated registries (tests) do not match the
process-wide layer and are rejected: an engine checkpoint is defined
over the process-wide telemetry contract only.
"""

from __future__ import annotations

import io
import pickle
import sys
from typing import Any, Dict, Tuple

from .. import telemetry
from ..telemetry.registry import Metric, MetricsRegistry
from ..telemetry.trace import EventTrace
from .format import CheckpointError

#: Persistent-id tags.
_TAG_REGISTRY = "telemetry_registry"
_TAG_TRACE = "telemetry_trace"
_TAG_FAMILY = "metric_family"
_TAG_CHILD = "metric_child"

PICKLE_PROTOCOL = 4  # stable across py3.8+; no benefit from 5 here


def _default_metric_ids() -> Dict[int, Tuple[str, ...]]:
    """Map ``id(metric) -> persistent reference`` for every family and
    labeled child currently registered in the process-wide registry."""
    refs: Dict[int, Tuple[str, ...]] = {}
    registry = telemetry.metrics()
    for name in registry.names():
        family = registry.get(name)
        refs[id(family)] = (_TAG_FAMILY, name)
        for values, child in family._children.items():
            refs[id(child)] = (_TAG_CHILD, name) + tuple(values)
    return refs


class CheckpointPickler(pickle.Pickler):
    """Pickler that swaps process-wide telemetry objects for references."""

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file, protocol=PICKLE_PROTOCOL)
        self._metric_refs = _default_metric_ids()
        self._registry = telemetry.metrics()
        self._trace = telemetry.trace()

    def persistent_id(self, obj: Any) -> Any:
        if isinstance(obj, MetricsRegistry):
            if obj is not self._registry:
                raise CheckpointError(
                    "cannot checkpoint state bound to an isolated "
                    "MetricsRegistry; checkpoints cover the process-wide "
                    "telemetry layer only")
            return (_TAG_REGISTRY,)
        if isinstance(obj, EventTrace):
            if obj is not self._trace and obj is not telemetry.NULL_TRACE:
                raise CheckpointError(
                    "cannot checkpoint state bound to a non-default "
                    "EventTrace")
            if obj is telemetry.NULL_TRACE:
                return (_TAG_TRACE, "null")
            return (_TAG_TRACE, "default")
        if isinstance(obj, Metric):
            ref = self._metric_refs.get(id(obj))
            if ref is None:
                raise CheckpointError(
                    f"cannot checkpoint metric {obj.name!r}: not part of "
                    f"the process-wide registry (isolated registries "
                    f"cannot be checkpointed)")
            return ref
        return None


class CheckpointUnpickler(pickle.Unpickler):
    """Unpickler resolving telemetry references against this process."""

    def persistent_load(self, pid: Any) -> Any:
        tag = pid[0]
        if tag == _TAG_REGISTRY:
            return telemetry.metrics()
        if tag == _TAG_TRACE:
            return telemetry.NULL_TRACE if pid[1] == "null" \
                else telemetry.trace()
        if tag in (_TAG_FAMILY, _TAG_CHILD):
            name = pid[1]
            registry = telemetry.metrics()
            if name not in registry:
                raise CheckpointError(
                    f"checkpoint references metric family {name!r} that "
                    f"the restored registry does not define - was the "
                    f"globals bundle restored first?")
            family = registry.get(name)
            if tag == _TAG_FAMILY:
                return family
            return family.labels(*pid[2:])
        raise CheckpointError(f"unknown persistent id {pid!r}")


#: Recursion headroom while pickling.  A simulation state is a deeply
#: linked object graph — a 1000-switch topology chains nodes -> links ->
#: nodes far past the interpreter's default limit of 1000 frames, and
#: the pickler walks it depth-first.  Scaled worlds (sharded regions,
#: large sweeps) need the larger bound; it is restored on exit so the
#: rest of the process keeps its normal guard.
_PICKLE_RECURSION_LIMIT = 100_000


def dump_state(state: Any) -> bytes:
    """Pickle ``state`` with telemetry-by-reference semantics."""
    buffer = io.BytesIO()
    previous_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous_limit, _PICKLE_RECURSION_LIMIT))
    try:
        CheckpointPickler(buffer).dump(state)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise CheckpointError(
            f"simulation state cannot be checkpointed: {exc}") from exc
    finally:
        sys.setrecursionlimit(previous_limit)
    return buffer.getvalue()


def load_state(blob: bytes) -> Any:
    """Unpickle a blob produced by :func:`dump_state`."""
    previous_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous_limit, _PICKLE_RECURSION_LIMIT))
    try:
        return CheckpointUnpickler(io.BytesIO(blob)).load()
    except CheckpointError:
        raise
    except Exception as exc:  # pickle raises a zoo of types on bad input
        raise CheckpointError(
            f"cannot unpickle checkpoint state: {exc}") from exc
    finally:
        sys.setrecursionlimit(previous_limit)
