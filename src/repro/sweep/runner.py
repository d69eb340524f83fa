"""The sweep runner: sharded execution, checkpoints, resume, merge.

Execution model
---------------

``run_sweep`` expands a :class:`~repro.sweep.spec.SweepSpec` into tasks
and runs each through :func:`run_task`:

1. reset this process's telemetry (registry **and** trace) so the task
   starts from a clean slate — under ``ProcessPoolExecutor`` every
   worker owns a private registry anyway (and forked workers must shed
   whatever state they inherited from the parent);
2. resolve and call the driver with the task's derived seed and params;
3. snapshot the registry into the task record;
4. write the record's JSON as the payload of a checkpoint container,
   ``<out>/tasks/<task_id>.ckpt`` (see :mod:`repro.checkpoint.format`),
   which doubles as the crash-safe checkpoint.

Resume: with ``resume=True`` a task whose container verifies and whose
header meta names the task's exact id and fingerprint is *skipped* and
its record reloaded; anything else (missing, truncated by a crash, bit
rot, produced by a different spec) is re-run.  Without ``resume``,
stale task checkpoints for this spec are removed first so a finished
directory always reflects exactly one coherent sweep.

Determinism: per-task seeds are derived, not shared; records are sorted
by ``task_id`` before aggregation; metric snapshots merge through the
additive (commutative, associative) :meth:`MetricsRegistry.merge`.
Hence ``--workers 8`` and ``--workers 1`` produce byte-identical
aggregates and merged snapshots for the same spec.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
import json
from pathlib import Path
import time
from typing import Any, Callable, Dict, List, Optional

from .. import telemetry
from ..checkpoint.format import (CheckpointError, atomic_write,
                                 read_container, write_container)
from ..telemetry import WALL_CLOCK_METRICS, MetricsRegistry
from .aggregate import aggregate_records
from .drivers import resolve_driver
from .spec import SweepSpec, SweepTask

TASK_DIR = "tasks"
SUMMARY_NAME = "sweep_summary.json"

# Counted in the *coordinator* process, so task failures are visible in
# its --metrics snapshot without polluting the merged per-task metrics
# (those come exclusively from worker snapshots in the task records).
_C_TASK_ERRORS = telemetry.metrics().counter(
    "sweep_task_errors_total",
    "sweep tasks that raised instead of completing, by exception type",
    labelnames=("kind",))

# Metric families that measure *wall-clock* time and therefore cannot
# be identical across executions are excluded from parity views;
# everything else in a sweep's merged snapshot is a pure function of
# (spec, seeds).  The list itself lives in repro.telemetry (one
# definition, imported here and by the determinism gate scripts) and is
# re-exported under its historical name for existing callers.


def stable_metrics(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic subset of a metrics snapshot: drop wall-clock
    timing families.  Two sweeps of the same spec agree on this view
    regardless of worker count — the basis of the determinism checks in
    tests and CI."""
    return {name: family for name, family in snapshot.items()
            if name not in WALL_CLOCK_METRICS}


@dataclass
class SweepResult:
    """Everything a finished sweep knows."""

    spec: SweepSpec
    records: List[Dict[str, Any]]  #: one per task, sorted by task_id
    aggregates: Dict[str, Any]
    merged_metrics: Dict[str, Any]
    executed: int = 0
    skipped: int = 0
    wall_seconds: float = 0.0
    out_dir: Optional[Path] = None
    errors: List[Dict[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.describe(),
            "n_tasks": len(self.records) + len(self.errors),
            "executed": self.executed,
            "skipped": self.skipped,
            "errors": self.errors,
            "wall_seconds": self.wall_seconds,
            "aggregates": self.aggregates,
            "merged_metrics": self.merged_metrics,
            # The families a determinism comparison must ignore; tools
            # like scripts/check_sweep.py read this instead of keeping
            # their own copy of WALL_CLOCK_METRICS in sync.
            "wall_clock_metrics": list(WALL_CLOCK_METRICS),
        }

    def write_summary(self, path) -> Path:
        path = Path(path)
        atomic_write(path, _json_bytes(self.summary()))
        return path


# ----------------------------------------------------------------------
# One task (runs inside workers; must stay module-level / picklable)
# ----------------------------------------------------------------------

def run_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one task from its wire form; returns the task record."""
    task = SweepTask(payload["experiment"],
                     tuple(tuple(p) for p in payload["params"]),
                     payload["logical_seed"], payload["seed"])
    telemetry.reset()
    driver = resolve_driver(task.experiment)
    out_dir = payload.get("out_dir")
    # Wall-clock by design: per-task wall_seconds is operator-facing
    # profiling data, excluded from every determinism comparison
    # (aggregate_records drops it; see WALL_CLOCK_METRICS).
    started = time.perf_counter()  # reprolint: disable=RPL002
    result = driver(task.seed, task.param_dict)
    record = {
        "task_id": task.task_id,
        "fingerprint": task.fingerprint(),
        "experiment": task.experiment,
        "group": task.group,
        "params": task.param_dict,
        "logical_seed": task.logical_seed,
        "seed": task.seed,
        "wall_seconds": time.perf_counter() - started,  # reprolint: disable=RPL002
        "result": result,
        "metrics": telemetry.metrics().snapshot(),
    }
    if out_dir is not None:
        write_container(Path(out_dir) / TASK_DIR / f"{task.task_id}.ckpt",
                        _json_bytes(record), _task_meta(task))
    return record


def _task_payload(task: SweepTask, out_dir: Optional[Path]) -> Dict:
    return {"experiment": task.experiment, "params": list(task.params),
            "logical_seed": task.logical_seed, "seed": task.seed,
            "out_dir": None if out_dir is None else str(out_dir)}


def _json_bytes(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True, default=str)
            + "\n").encode("ascii")


def _task_meta(task: SweepTask) -> Dict[str, str]:
    return {"task_id": task.task_id, "fingerprint": task.fingerprint()}


def _load_checkpoint(path: Path, task: SweepTask) -> Optional[Dict]:
    """The record at ``path`` iff its container verifies and names
    exactly ``task`` (same id *and* fingerprint); None otherwise, so a
    tampered, truncated or foreign file is re-run, never trusted."""
    try:
        header, payload = read_container(path)
        if header["meta"] == _task_meta(task):
            return json.loads(payload)
    except (CheckpointError, ValueError):
        pass
    return None


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------

def run_sweep(spec: SweepSpec, out_dir=None, workers: int = 1,
              resume: bool = False,
              progress: Optional[Callable[[str], None]] = None
              ) -> SweepResult:
    """Run every task of ``spec``; returns the aggregated result.

    ``workers <= 1`` executes inline (no pool — simplest to debug and
    byte-identical to the sharded path); ``workers > 1`` shards over a
    :class:`ProcessPoolExecutor`.  With ``out_dir`` set, per-task
    checkpoints and ``sweep_summary.json`` are written there; with
    ``resume=True``, tasks whose checkpoints match are skipped.
    """
    say = progress if progress is not None else (lambda message: None)
    out_path = None if out_dir is None else Path(out_dir)
    tasks = spec.tasks()
    # Sweep-level wall time: reporting only, never aggregated.
    started = time.perf_counter()  # reprolint: disable=RPL002

    done: Dict[str, Dict[str, Any]] = {}
    pending: List[SweepTask] = []
    for task in tasks:
        checkpoint = (None if out_path is None else
                      out_path / TASK_DIR / f"{task.task_id}.ckpt")
        if resume and checkpoint is not None and checkpoint.exists():
            record = _load_checkpoint(checkpoint, task)
            if record is not None:
                done[task.task_id] = record
                continue
            say(f"[sweep] stale checkpoint for {task.task_id}; re-running")
        elif not resume and checkpoint is not None and checkpoint.exists():
            # Fresh (non-resume) sweep: no finished record survives.
            checkpoint.unlink()
        pending.append(task)
    skipped = len(done)
    if skipped:
        say(f"[sweep] resume: {skipped}/{len(tasks)} task(s) already "
            f"complete, running {len(pending)}")

    errors: List[Dict[str, str]] = []

    def collect(task: SweepTask, record: Dict[str, Any]) -> None:
        done[task.task_id] = record
        say(f"[sweep] done {task.task_id}")

    def fail(task: SweepTask, exc: Exception) -> None:
        # A driver failure (unknown name, a parameter point it rejects,
        # a bad signature, or anything unexpected) is counted into
        # telemetry before it is swallowed, so --metrics shows the loss.
        _C_TASK_ERRORS.labels(type(exc).__name__).inc()
        errors.append({"task_id": task.task_id,
                       "error": f"{type(exc).__name__}: {exc}"})
        say(f"[sweep] FAILED {task.task_id}: {exc}")

    if workers > 1 and len(pending) > 1:
        say(f"[sweep] running {len(pending)} task(s) on "
            f"{workers} workers")
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(task,
                        pool.submit(run_task, _task_payload(task, out_path)))
                       for task in pending]
            for task, future in futures:
                try:
                    collect(task, future.result())
                except BrokenProcessPool as exc:
                    # Known failure shape: a worker died (OOM/segfault)
                    # and every not-yet-collected future fails with it.
                    _C_TASK_ERRORS.labels("BrokenProcessPool").inc()
                    errors.append(
                        {"task_id": task.task_id,
                         "error": f"worker process died before "
                                  f"completing this task: {exc}"})
                    say(f"[sweep] FAILED {task.task_id}: worker died")
                except Exception as exc:
                    fail(task, exc)
    else:
        for task in pending:
            say(f"[sweep] running {task.task_id}")
            try:
                collect(task, run_task(_task_payload(task, out_path)))
            except Exception as exc:
                fail(task, exc)

    records = [done[t.task_id] for t in tasks if t.task_id in done]
    merged = MetricsRegistry().merge(
        *(r["metrics"] for r in records)).snapshot()
    result = SweepResult(
        spec=spec, records=records,
        aggregates=aggregate_records(records),
        merged_metrics=merged,
        executed=len(records) - skipped, skipped=skipped,
        wall_seconds=time.perf_counter() - started,  # reprolint: disable=RPL002
        out_dir=out_path, errors=errors)
    if out_path is not None:
        result.write_summary(out_path / SUMMARY_NAME)
    return result
