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
4. write the record to ``<out>/tasks/<task_id>.json`` atomically
   (temp file + ``os.replace``), which doubles as the crash-safe
   checkpoint.

Resume: with ``resume=True`` a task whose checkpoint exists, parses,
and carries the task's exact fingerprint is *skipped* and its record
reloaded; anything else (missing, truncated by a crash, produced by a
different spec) is re-run.  Without ``resume``, stale task checkpoints
for this spec are removed first so a finished directory always reflects
exactly one coherent sweep.

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
import os
from pathlib import Path
import time
from typing import Any, Callable, Dict, List, Optional

from .. import telemetry
from ..telemetry import WALL_CLOCK_METRICS, MetricsRegistry
from .aggregate import aggregate_records
from .drivers import CheckpointableDriver, resolve_driver
from .spec import SweepSpec, SweepTask

TASK_DIR = "tasks"
SUMMARY_NAME = "sweep_summary.json"
#: Partial engine checkpoint left behind by a preempted task; resumed
#: (after fingerprint validation) by the next run of the same spec.
PART_SUFFIX = ".part.ckpt"
#: Engine events per slice while advancing a checkpointable task.
PREEMPT_STEP_EVENTS = 2048

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
    #: Marker records of tasks cut off by ``preempt_events``; their
    #: partial checkpoints are picked up by the next ``--resume`` run.
    preempted: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.describe(),
            "n_tasks": (len(self.records) + len(self.errors)
                        + len(self.preempted)),
            "executed": self.executed,
            "skipped": self.skipped,
            "preempted": len(self.preempted),
            "preempted_tasks": [m["task_id"] for m in self.preempted],
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
        atomic_write_json(path, self.summary())
        return path


# ----------------------------------------------------------------------
# One task (runs inside workers; must stay module-level / picklable)
# ----------------------------------------------------------------------

def run_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one task from its wire form; returns the task record.

    With ``preempt_events`` set and a :class:`CheckpointableDriver`,
    the task runs through the build/advance/finish protocol with a
    bounded event budget: when the budget runs out before the horizon,
    the world is checkpointed to ``tasks/<id>.part.ckpt`` and a
    *preempted marker* record (``{"preempted": True, ...}``) is
    returned instead of a result.  The next run of the same spec
    restores the part-checkpoint (fingerprint-validated) and continues
    where the budget cut off.
    """
    task = SweepTask(payload["experiment"],
                     tuple(tuple(p) for p in payload["params"]),
                     payload["logical_seed"], payload["seed"])
    telemetry.reset()
    driver = resolve_driver(task.experiment)
    out_dir = payload.get("out_dir")
    preempt_events = payload.get("preempt_events")
    # Wall-clock by design: per-task wall_seconds is operator-facing
    # profiling data, excluded from every determinism comparison
    # (aggregate_records drops it; see WALL_CLOCK_METRICS).
    started = time.perf_counter()  # reprolint: disable=RPL002
    if isinstance(driver, CheckpointableDriver) and out_dir is not None:
        outcome = _run_checkpointable(task, driver, out_dir,
                                      preempt_events)
        if outcome.get("preempted"):
            return outcome
        result = outcome["result"]
    else:
        if preempt_events is not None:
            raise ValueError(
                f"driver {task.experiment!r} is not checkpointable (or "
                f"no --out directory for part-checkpoints); "
                f"--preempt-events needs both")
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
        checkpoint = Path(out_dir) / TASK_DIR / f"{task.task_id}.json"
        atomic_write_json(checkpoint, record)
        part = Path(out_dir) / TASK_DIR / f"{task.task_id}{PART_SUFFIX}"
        if part.exists():
            part.unlink()  # finished: the partial state is superseded
    return record


def _part_path(out_dir: Any, task: SweepTask) -> Path:
    return Path(out_dir) / TASK_DIR / f"{task.task_id}{PART_SUFFIX}"


def _run_checkpointable(task: SweepTask, driver: Any, out_dir: Any,
                        preempt_events: Optional[int]) -> Dict[str, Any]:
    """Advance one checkpointable task, resuming from and/or writing a
    partial engine checkpoint.  Returns ``{"result": record}`` on
    completion or a preempted marker dict."""
    from ..checkpoint import CheckpointError
    from ..netsim.engine import Simulator
    part = _part_path(out_dir, task)
    world = None
    if part.exists():
        try:
            sim, world, meta = Simulator.restore(part)
            if meta.get("task_fingerprint") != task.fingerprint():
                world = None  # different spec wrote this; start over
        except CheckpointError:
            world = None  # truncated/corrupt (crashed mid-write family)
        if world is None:
            part.unlink()
    if world is None:
        world = driver.build(task.seed, task.param_dict)
    entry_events = world.sim.events_executed
    while not world.done:
        if preempt_events is not None:
            budget = preempt_events - (world.sim.events_executed
                                       - entry_events)
            if budget <= 0:
                world.sim.snapshot(
                    part, state=world,
                    meta={"task_id": task.task_id,
                          "task_fingerprint": task.fingerprint()})
                return {"preempted": True,
                        "task_id": task.task_id,
                        "fingerprint": task.fingerprint(),
                        "events_executed": world.sim.events_executed,
                        "sim_time": world.sim.now,
                        "part_checkpoint": str(part)}
            step = min(PREEMPT_STEP_EVENTS, budget)
        else:
            step = PREEMPT_STEP_EVENTS
        driver.advance(world, max_events=step)
    return {"result": driver.finish(world)}


def _task_payload(task: SweepTask, out_dir: Optional[Path],
                  preempt_events: Optional[int] = None) -> Dict:
    return {"experiment": task.experiment, "params": list(task.params),
            "logical_seed": task.logical_seed, "seed": task.seed,
            "out_dir": None if out_dir is None else str(out_dir),
            "preempt_events": preempt_events}


def atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    """Write ``payload`` as pretty JSON via a same-directory temp file +
    ``os.replace`` so readers never observe a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    os.replace(tmp, path)


def _load_checkpoint(path: Path, task: SweepTask) -> Optional[Dict]:
    """The record at ``path`` iff it is a finished run of exactly
    ``task`` (same id *and* fingerprint); None otherwise."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (record.get("task_id") == task.task_id
            and record.get("fingerprint") == task.fingerprint()):
        return record
    return None


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------

def run_sweep(spec: SweepSpec, out_dir=None, workers: int = 1,
              resume: bool = False,
              progress: Optional[Callable[[str], None]] = None,
              preempt_events: Optional[int] = None) -> SweepResult:
    """Run every task of ``spec``; returns the aggregated result.

    ``workers <= 1`` executes inline (no pool — simplest to debug and
    byte-identical to the sharded path); ``workers > 1`` shards over a
    :class:`ProcessPoolExecutor`.  With ``out_dir`` set, per-task
    checkpoints and ``sweep_summary.json`` are written there; with
    ``resume=True``, tasks whose checkpoints match are skipped.

    ``preempt_events`` bounds each checkpointable task to that many
    engine events per invocation: tasks that hit the budget park an
    engine checkpoint in ``tasks/<id>.part.ckpt`` and are reported in
    :attr:`SweepResult.preempted`; a later ``resume=True`` run (with or
    without a budget) restores and continues them.  Requires ``out_dir``
    and checkpointable drivers.
    """
    say = progress if progress is not None else (lambda message: None)
    out_path = None if out_dir is None else Path(out_dir)
    tasks = spec.tasks()
    # Sweep-level wall time: reporting only, never aggregated.
    started = time.perf_counter()  # reprolint: disable=RPL002

    if preempt_events is not None and out_path is None:
        raise ValueError("preempt_events requires an out_dir for the "
                         "partial checkpoints")

    done: Dict[str, Dict[str, Any]] = {}
    pending: List[SweepTask] = []
    for task in tasks:
        checkpoint = (None if out_path is None else
                      out_path / TASK_DIR / f"{task.task_id}.json")
        if resume and checkpoint is not None and checkpoint.exists():
            record = _load_checkpoint(checkpoint, task)
            if record is not None:
                done[task.task_id] = record
                continue
            say(f"[sweep] stale checkpoint for {task.task_id}; re-running")
        elif not resume and checkpoint is not None:
            # Fresh (non-resume) sweep: no leftovers — neither finished
            # records nor partial engine checkpoints survive.
            if checkpoint.exists():
                checkpoint.unlink()
            part = _part_path(out_path, task)
            if part.exists():
                part.unlink()
        pending.append(task)
    skipped = len(done)
    if skipped:
        say(f"[sweep] resume: {skipped}/{len(tasks)} task(s) already "
            f"complete, running {len(pending)}")

    errors: List[Dict[str, str]] = []
    preempted: List[Dict[str, Any]] = []

    def collect(task: SweepTask, record: Dict[str, Any]) -> None:
        if record.get("preempted"):
            preempted.append(record)
            say(f"[sweep] preempted {task.task_id} at "
                f"{record['events_executed']} events "
                f"(partial checkpoint parked)")
        else:
            done[task.task_id] = record
            say(f"[sweep] done {task.task_id}")

    if workers > 1 and len(pending) > 1:
        say(f"[sweep] running {len(pending)} task(s) on "
            f"{workers} workers")
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(task,
                        pool.submit(run_task,
                                    _task_payload(task, out_path,
                                                  preempt_events)))
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
                    # Unexpected driver failure: count it into telemetry
                    # before swallowing so --metrics shows the loss.
                    _C_TASK_ERRORS.labels(type(exc).__name__).inc()
                    errors.append(
                        {"task_id": task.task_id,
                         "error": f"{type(exc).__name__}: {exc}"})
                    say(f"[sweep] FAILED {task.task_id}: {exc}")
    else:
        for task in pending:
            say(f"[sweep] running {task.task_id}")
            try:
                collect(task, run_task(
                    _task_payload(task, out_path, preempt_events)))
            except (KeyError, ValueError, TypeError) as exc:
                # Known failure shapes: unknown driver name, a parameter
                # point the driver rejects, or a bad signature.
                _C_TASK_ERRORS.labels(type(exc).__name__).inc()
                errors.append({"task_id": task.task_id,
                               "error": f"{type(exc).__name__}: {exc}"})
                say(f"[sweep] FAILED {task.task_id}: {exc}")
            except Exception as exc:
                # Unexpected: still recorded into telemetry and the
                # error list before the sweep moves on.
                _C_TASK_ERRORS.labels(type(exc).__name__).inc()
                errors.append({"task_id": task.task_id,
                               "error": f"{type(exc).__name__}: {exc}"})
                say(f"[sweep] FAILED {task.task_id}: {exc}")

    records = [done[t.task_id] for t in tasks if t.task_id in done]
    merged = MetricsRegistry().merge(
        *(r["metrics"] for r in records)).snapshot()
    result = SweepResult(
        spec=spec, records=records,
        aggregates=aggregate_records(records),
        merged_metrics=merged,
        executed=len(records) - skipped, skipped=skipped,
        wall_seconds=time.perf_counter() - started,  # reprolint: disable=RPL002
        out_dir=out_path, errors=errors, preempted=preempted)
    if out_path is not None:
        result.write_summary(out_path / SUMMARY_NAME)
    return result
