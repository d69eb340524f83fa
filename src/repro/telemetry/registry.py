"""Metrics registry: counters, gauges, and histograms with labels.

The registry is the aggregate half of the telemetry subsystem (the
:mod:`~repro.telemetry.trace` module is the per-event half).  It is
deliberately minimal — a process-local, dependency-free subset of the
Prometheus client model — because its increments sit on the simulator's
hottest paths (the fluid allocator runs every 10 ms of simulated time).

Overhead budget (see DESIGN.md "Telemetry"):

* ``Counter.inc`` / ``Gauge.set`` are one attribute add/store; callers on
  hot paths cache the metric (or labeled child) object once, so no dict
  lookup happens per event.
* Labeled children are created on first :meth:`~Metric.labels` call and
  cached by the caller; ``labels()`` itself is not hot-path safe.
* Snapshots and JSON export walk the registry only when explicitly
  requested (end of run, ``--metrics`` flag, benchmark teardown).

Instrumented modules use the process-wide default registry from
:func:`repro.telemetry.metrics`; isolated registries exist for tests.
"""

from __future__ import annotations

import bisect
import json
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple, Type, cast

LabelValues = Tuple[str, ...]

#: Default histogram buckets (seconds-scale: micro to tens of seconds).
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0,
                   10.0, 30.0)


class MetricError(ValueError):
    """Raised on metric misuse (name clash, wrong label set, ...)."""


class Metric:
    """Base of all metric families.

    A family without ``labelnames`` is used directly (``counter.inc()``);
    with labelnames, per-label-value children are obtained via
    :meth:`labels` and used the same way.
    """

    kind = "metric"

    def __init__(self, name: str, description: str = "",
                 labelnames: Iterable[str] = ()) -> None:
        self.name = name
        self.description = description
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._children: Dict[LabelValues, "Metric"] = {}

    # ------------------------------------------------------------------
    def labels(self, *values: str, **kw: str) -> "Metric":
        """Get (or create) the child for one label-value combination."""
        if kw:
            if values:
                raise MetricError(
                    f"{self.name}: pass label values positionally or by "
                    f"keyword, not both")
            try:
                values = tuple(str(kw[name]) for name in self.labelnames)
            except KeyError as exc:
                raise MetricError(
                    f"{self.name}: missing label {exc.args[0]!r}; "
                    f"expected {self.labelnames}") from None
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise MetricError(
                f"{self.name}: expected {len(self.labelnames)} label "
                f"values {self.labelnames}, got {len(values)}")
        child = self._children.get(values)
        if child is None:
            child = self._make_child()
            self._children[values] = child
        return child

    def _make_child(self) -> "Metric":
        raise NotImplementedError

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero this family's value and every child's, in place (cached
        references held by instrumented code stay valid)."""
        self._reset_value()
        for child in self._children.values():
            child._reset_value()

    def _reset_value(self) -> None:
        raise NotImplementedError

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable view of this family.

        The view is *round-trippable*: it carries the label names (and,
        for histograms, the exact bucket bounds) so a snapshot taken in
        one process can be folded into another process's registry with
        :meth:`MetricsRegistry.merge`.
        """
        data: Dict[str, Any] = {"kind": self.kind,
                                "value": self._snap_value()}
        if self.description:
            data["description"] = self.description
        if self.labelnames:
            data["labelnames"] = list(self.labelnames)
            data["labels"] = {
                ",".join(values): child._snap_value()
                for values, child in sorted(self._children.items())}
        return data

    def _snap_value(self) -> Any:
        raise NotImplementedError

    def _merge_snap(self, value: Any) -> None:
        """Fold one snapshot value (the ``_snap_value`` form) into this
        metric.  Merging is additive — see :meth:`MetricsRegistry.merge`
        for the per-kind semantics."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str = "", description: str = "",
                 labelnames: Iterable[str] = ()) -> None:
        super().__init__(name, description, labelnames)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def _make_child(self) -> "Counter":
        return Counter(self.name)

    def _reset_value(self) -> None:
        self.value = 0.0

    def _snap_value(self) -> float:
        return self.value

    def _merge_snap(self, value: Any) -> None:
        self.value += float(value)


class Gauge(Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str = "", description: str = "",
                 labelnames: Iterable[str] = ()) -> None:
        super().__init__(name, description, labelnames)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def _make_child(self) -> "Gauge":
        return Gauge(self.name)

    def _reset_value(self) -> None:
        self.value = 0.0

    def _snap_value(self) -> float:
        return self.value

    def _merge_snap(self, value: Any) -> None:
        # Gauges merge by summation: for worker-sharded runs the natural
        # reading of e.g. "events executed" or "queue depth" across
        # workers is the total.  Last-value semantics cannot survive a
        # merge of concurrent snapshots anyway; callers needing a
        # per-worker view keep the unmerged snapshots.
        self.value += float(value)


class Histogram(Metric):
    """Cumulative-bucket histogram of observed values."""

    kind = "histogram"

    def __init__(self, name: str = "", description: str = "",
                 labelnames: Iterable[str] = (),
                 buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, description, labelnames)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise MetricError(f"{name}: histogram needs >= 1 bucket bound")
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, buckets=self.buckets)

    def _reset_value(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def _snap_value(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "bounds": list(self.buckets),
            "buckets": {
                **{f"le_{bound:g}": cumulative
                   for bound, cumulative in zip(
                       self.buckets, _cumulate(self.counts[:-1]))},
                "inf": self.count,
            },
        }

    def _merge_snap(self, value: Any) -> None:
        bounds = tuple(value.get("bounds", ()))
        if bounds and bounds != self.buckets:
            raise MetricError(
                f"{self.name}: cannot merge histogram with bounds "
                f"{bounds} into bounds {self.buckets}")
        cumulative = value.get("buckets", {})
        previous = 0
        for index, bound in enumerate(self.buckets):
            upto = cumulative.get(f"le_{bound:g}", previous)
            self.counts[index] += upto - previous
            previous = upto
        self.counts[-1] += value["count"] - previous
        self.sum += value["sum"]
        self.count += value["count"]


def _zero_snap(value: Any) -> bool:
    """True when a snapshot value carries no information to merge."""
    if isinstance(value, dict):  # histogram
        return not value.get("count")
    return not value


def _cumulate(counts: Iterable[int]) -> List[int]:
    total = 0
    out: List[int] = []
    for count in counts:
        total += count
        out.append(total)
    return out


class MetricsRegistry:
    """Holds metric families by name; get-or-create and snapshot/export.

    Family constructors are idempotent: asking twice for the same name
    returns the same object, so instrumented modules can cache metrics at
    import time while tests re-request them by name.  Re-requesting with
    a *different* type or label set is an error — silent divergence
    between two call sites is exactly what a registry exists to prevent.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def counter(self, name: str, description: str = "",
                labelnames: Iterable[str] = ()) -> Counter:
        # _check guarantees the stored metric is a Counter.
        return cast(Counter, self._get_or_create(
            Counter, name, description, labelnames))

    def gauge(self, name: str, description: str = "",
              labelnames: Iterable[str] = ()) -> Gauge:
        return cast(Gauge, self._get_or_create(
            Gauge, name, description, labelnames))

    def histogram(self, name: str, description: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = Histogram(name, description, labelnames,
                                       buckets=buckets)
                    self._metrics[name] = metric
        self._check(metric, Histogram, name, labelnames)
        return cast(Histogram, metric)

    def _get_or_create(self, cls: Type[Metric], name: str,
                       description: str,
                       labelnames: Iterable[str]) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(name, description, labelnames)
                    self._metrics[name] = metric
        self._check(metric, cls, name, labelnames)
        return metric

    @staticmethod
    def _check(metric: Metric, cls: Type[Metric], name: str,
               labelnames: Iterable[str]) -> None:
        if not isinstance(metric, cls):
            raise MetricError(
                f"{name!r} already registered as {metric.kind}, "
                f"not {cls.kind}")
        if tuple(labelnames) != metric.labelnames:
            raise MetricError(
                f"{name!r} already registered with labels "
                f"{metric.labelnames}, not {tuple(labelnames)}")

    # ------------------------------------------------------------------
    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise KeyError(f"no metric named {name!r}; have "
                           f"{sorted(self._metrics)}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        """Zero every metric in place.  Cached metric objects held by
        instrumented modules keep working and stay registered."""
        for metric in self._metrics.values():
            metric.reset()

    # ------------------------------------------------------------------
    def _family_from_snap(self, name: str,
                          family: Dict[str, Any]) -> Metric:
        """Get or create the family one :meth:`snapshot` entry describes:
        its kind, description and label names, and for a histogram the
        first bucket bounds recorded on its value or any child."""
        kind = family.get("kind", Counter.kind)
        description = family.get("description", "")
        labelnames = tuple(family.get("labelnames", ()))
        if kind == Histogram.kind:
            bounds: Optional[Tuple[float, ...]] = None
            for candidate in [family["value"]] + list(
                    family.get("labels", {}).values()):
                if isinstance(candidate, dict) and candidate.get("bounds"):
                    bounds = tuple(candidate["bounds"])
                    break
            return self.histogram(name, description, labelnames,
                                  buckets=bounds or DEFAULT_BUCKETS)
        if kind == Counter.kind:
            return self.counter(name, description, labelnames)
        if kind == Gauge.kind:
            return self.gauge(name, description, labelnames)
        raise MetricError(f"{name!r}: unknown metric kind {kind!r}")

    def merge(self,
              *snapshots: Dict[str, Dict[str, Any]]) -> "MetricsRegistry":
        """Fold one or more :meth:`snapshot` dicts into this registry.

        This is how per-worker telemetry becomes one sweep-level view:
        every sweep worker runs against its own (process-local) registry,
        returns ``registry.snapshot()``, and the coordinator merges the
        snapshots into a fresh registry.  Merging is **additive** and
        therefore associative and commutative:

        * counters and gauges sum their values (gauge last-value
          semantics cannot survive a merge of concurrent runs; the
          total is the only order-independent reading);
        * histograms add per-bucket counts, ``sum`` and ``count``
          (bucket bounds must match exactly);
        * labeled children merge label-by-label — families are created
          with the snapshot's recorded ``labelnames``, so label sets
          stay consistent with live instrumentation.

        Families absent from this registry are created on the fly;
        families present in both must agree on kind and label names
        (:class:`MetricError` otherwise).  Returns ``self`` so callers
        can chain ``MetricsRegistry().merge(a, b).snapshot()``.

        Zero-valued entries (a reset-but-untouched counter, a histogram
        with no observations) are skipped: they contribute nothing, and
        skipping them makes the merged result independent of *which*
        process happened to have instantiated a family — without it,
        sharding the same tasks over a different worker count could
        change the merged snapshot's key set.
        """
        for snap in snapshots:
            for name in sorted(snap):
                family = snap[name]
                value = family["value"]
                live_labels = {
                    joined: child
                    for joined, child in family.get("labels", {}).items()
                    if not _zero_snap(child)}
                if _zero_snap(value) and not live_labels:
                    continue
                metric = self._family_from_snap(name, family)
                if not _zero_snap(value):
                    metric._merge_snap(value)
                for joined, child in live_labels.items():
                    metric.labels(*joined.split(","))._merge_snap(child)
        return self

    # ------------------------------------------------------------------
    def restore_snapshot(
            self, snapshot: Dict[str, Dict[str, Any]]) -> "MetricsRegistry":
        """Restore this registry *exactly* to a :meth:`snapshot`, in place.

        Where :meth:`merge` folds snapshots additively (and skips
        zero-valued entries so worker sharding stays key-set
        independent), ``restore_snapshot`` is the checkpoint/restore
        primitive: every live family is zeroed, then every family in
        the snapshot — including zero-valued ones and zero-valued
        labeled children — is recreated with its exact kind, label
        names, bucket bounds, and values.  After a restore,
        ``registry.snapshot()`` equals the input snapshot modulo
        families the snapshot never mentioned (those stay registered
        but zeroed, which is what in-place :meth:`reset` guarantees
        cached metric objects anyway).

        Kind or label-set conflicts with live families raise
        :class:`MetricError` — restoring a checkpoint into a process
        whose instrumentation disagrees with the checkpoint's is an
        error worth surfacing, not papering over.
        """
        for metric in self._metrics.values():
            metric.reset()
        for name in sorted(snapshot):
            family = snapshot[name]
            value = family["value"]
            metric = self._family_from_snap(name, family)
            metric._reset_value()
            if not _zero_snap(value):
                metric._merge_snap(value)
            for joined, child_value in family.get("labels", {}).items():
                child = metric.labels(*joined.split(","))
                child._reset_value()
                if not _zero_snap(child_value):
                    child._merge_snap(child_value)
        return self

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A JSON-serializable dict of every family's current state."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}

    def write_json(self, path: Any) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
