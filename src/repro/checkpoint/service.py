"""Always-on service mode: ``python -m repro serve``.

Runs a scenario world as a long-lived service instead of a batch run:

* the engine advances in bounded event slices, executing queued
  commands between slices;
* live **scenario injections** arrive as JSON commands (one object per
  line, stdin by default or ``--commands FILE``): attach/detach the
  rolling attacker, fail a link, degrade capacity, checkpoint, status,
  stop — all without restarting the process;
* **telemetry streams** as JSONL (``--stream``): every buffered trace
  event (the existing :class:`~repro.telemetry.EventTrace` schema) is
  drained between slices, interleaved with ``service_heartbeat``
  records carrying the simulation clock and event count;
* the engine **auto-checkpoints** every N executed events
  (``--checkpoint-every-events``, written to ``--checkpoint-dir``), so
  a ``kill -9`` loses at most one checkpoint interval — restart with
  ``--restore`` and the run continues deterministically.  Checkpoint
  cadence is event-count based, not wall-clock based, which keeps the
  service free of wall-clock reads (the RPL002 contract) and makes the
  kill-and-resume CI gate (``scripts/check_restore.py``) reproducible.

Command protocol (requests on the command stream, one JSON object per
line; responses and telemetry on the output stream)::

    {"op": "attach-attack", "start_delay": 1.0}
    {"op": "detach-attack"}
    {"op": "fail-link", "src": "s3", "dst": "s4"}
    {"op": "set-link-capacity", "src": "s3", "dst": "s4",
     "capacity_bps": 1e9}
    {"op": "checkpoint", "path": "optional/explicit.ckpt"}
    {"op": "status"}
    {"op": "stop"}

Commands execute at the next slice boundary, at the simulation time the
engine has reached — deterministic with respect to the event sequence,
not with respect to wall-clock arrival.
"""

from __future__ import annotations

import argparse
import json
import queue
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, TextIO, Tuple

from .. import telemetry
from ..netsim.engine import Simulator
from .format import CheckpointError

_TRACE = telemetry.trace()

#: Scenario registry: name -> (system, description).  Scenarios are
#: figure3 worlds; the world API (build/advance/inject/finish) lives in
#: :mod:`repro.experiments.figure3`.
SCENARIOS = {
    "figure3_fastflex": ("fastflex",
                         "FastFlex defense on the Figure 2 network"),
    "figure3_baseline": ("baseline_sdn",
                         "centralized SDN-TE baseline"),
}


def _check_cadence(step_events: int, checkpoint_every_events: int,
                   checkpoint_dir: Optional[Path]) -> None:
    if step_events < 1:
        raise ValueError("step_events must be >= 1")
    if checkpoint_every_events < 0:
        raise ValueError(
            f"checkpoint_every_events must be >= 0 (0 = explicit "
            f"checkpoints only), got {checkpoint_every_events}")
    if checkpoint_every_events and checkpoint_dir is None:
        raise ValueError(
            "checkpoint_every_events needs a checkpoint directory "
            "(--checkpoint-dir)")


class EngineService:
    """The long-lived driver around one scenario world."""

    def __init__(self, scenario: str, seed: int, duration_s: float,
                 step_events: int = 500,
                 checkpoint_every_events: int = 0,
                 checkpoint_dir: Optional[Path] = None,
                 stream: Optional[TextIO] = None,
                 launch_attacker: bool = False) -> None:
        from ..experiments.figure3 import Figure3Config, build_world
        if scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {scenario!r}; have {sorted(SCENARIOS)}")
        system, _ = SCENARIOS[scenario]

        def build() -> Tuple[str, Any]:
            config = Figure3Config(seed=seed, duration_s=duration_s)
            return scenario, build_world(system, config,
                                         launch_attacker=launch_attacker)

        self._setup(build, step_events, checkpoint_every_events,
                    checkpoint_dir, stream)

    @classmethod
    def from_checkpoint(cls, path: Path, step_events: int = 500,
                        checkpoint_every_events: int = 0,
                        checkpoint_dir: Optional[Path] = None,
                        stream: Optional[TextIO] = None
                        ) -> "EngineService":
        """Resume a service from an engine checkpoint written by
        :meth:`checkpoint` (or any ``world.sim.snapshot``)."""
        def restore() -> Tuple[str, Any]:
            _sim, world, meta = Simulator.restore(path)
            if world is None or not hasattr(world, "config"):
                raise CheckpointError(
                    f"{path}: checkpoint has no scenario world attached")
            return str(meta.get("scenario", f"figure3_{world.system}")), world

        service = cls.__new__(cls)
        service._setup(restore, step_events, checkpoint_every_events,
                       checkpoint_dir, stream)
        return service

    def _setup(self, open_world: Callable[[], Tuple[str, Any]],
               step_events: int, checkpoint_every_events: int,
               checkpoint_dir: Optional[Path],
               stream: Optional[TextIO]) -> None:
        """The one place a service's fields are set, for both
        constructors: the cadence is checked before any world is built
        or restored, and ``open_world`` builds or restores it."""
        _check_cadence(step_events, checkpoint_every_events, checkpoint_dir)
        self.step_events = step_events
        self.checkpoint_every_events = checkpoint_every_events
        self.checkpoint_dir = checkpoint_dir
        self.stream = stream
        self.stopped = False
        self.commands: "queue.Queue[Dict[str, Any]]" = queue.Queue()
        if stream is not None:
            _TRACE.enable()  # before a build, so experiment_start streams
        self.scenario, self.world = open_world()
        if stream is not None:
            _TRACE.enable()  # a restore re-seats the checkpoint's trace state
        self._schedule_next_checkpoint()

    # ------------------------------------------------------------------
    # Output stream
    # ------------------------------------------------------------------
    def _emit(self, record: Dict[str, Any]) -> None:
        if self.stream is None:
            return
        json.dump(record, self.stream, sort_keys=True, default=str)
        self.stream.write("\n")
        self.stream.flush()

    def _drain_trace(self) -> None:
        if self.stream is None:
            return
        for event in _TRACE.drain():
            self._emit(event.to_dict())

    def _heartbeat(self) -> None:
        sim = self.world.sim
        self._emit({"kind": "service_heartbeat", "sim_time": sim.now,
                    "events_executed": sim.events_executed,
                    "pending_events": sim.pending(),
                    "scenario": self.scenario})

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, path: Optional[Path] = None) -> Path:
        sim = self.world.sim
        if path is None:
            if self.checkpoint_dir is None:
                raise CheckpointError(
                    "no checkpoint path: pass one or set --checkpoint-dir")
            path = (Path(self.checkpoint_dir)
                    / f"ckpt_{sim.events_executed:012d}.ckpt")
        fingerprint = sim.snapshot(path, state=self.world,
                                   meta={"scenario": self.scenario})
        self._emit({"kind": "service_checkpoint", "sim_time": sim.now,
                    "events_executed": sim.events_executed,
                    "path": str(path), "fingerprint": fingerprint})
        return Path(path)

    def _schedule_next_checkpoint(self) -> None:
        """The next multiple of the cadence strictly after the events
        executed so far (0 when auto-checkpointing is off)."""
        interval = self.checkpoint_every_events
        executed = self.world.sim.events_executed
        self._next_checkpoint = (
            ((executed // interval) + 1) * interval if interval else 0)

    def _maybe_auto_checkpoint(self) -> None:
        if not self.checkpoint_every_events:
            return
        if self.world.sim.events_executed >= self._next_checkpoint:
            self.checkpoint()
            self._schedule_next_checkpoint()

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def submit(self, command: Dict[str, Any]) -> None:
        """Enqueue one command; executed at the next slice boundary."""
        self.commands.put(command)

    def _handle(self, command: Dict[str, Any]) -> Dict[str, Any]:
        from ..experiments import figure3
        op = command.get("op")
        sim = self.world.sim
        if op == "attach-attack":
            params = {key: value for key, value in command.items()
                      if key != "op"}
            figure3.attach_attack(self.world, **params)
            return {"op": op, "ok": True}
        if op == "detach-attack":
            figure3.detach_attack(self.world)
            return {"op": op, "ok": True}
        if op == "fail-link":
            figure3.fail_link(self.world, command["src"], command["dst"])
            return {"op": op, "ok": True}
        if op == "set-link-capacity":
            figure3.set_link_capacity(
                self.world, command["src"], command["dst"],
                float(command["capacity_bps"]))
            return {"op": op, "ok": True}
        if op == "checkpoint":
            explicit = command.get("path")
            path = self.checkpoint(None if explicit is None
                                   else Path(explicit))
            return {"op": op, "ok": True, "path": str(path)}
        if op == "status":
            return {"op": op, "ok": True, "sim_time": sim.now,
                    "events_executed": sim.events_executed,
                    "pending_events": sim.pending(),
                    "scenario": self.scenario,
                    "attack_attached": self.world.attacker is not None}
        if op == "stop":
            self.stopped = True
            return {"op": op, "ok": True}
        if op == "__parse_error__":  # from the reader thread, not a client
            return {"op": op, "ok": False,
                    "error": f"not a JSON object: {command.get('line')!r}"}
        return {"op": op, "ok": False,
                "error": f"unknown op {op!r}"}

    def _process_commands(self) -> None:
        while True:
            try:
                command = self.commands.get_nowait()
            except queue.Empty:
                return
            try:
                response = self._handle(command)
            except (ValueError, KeyError, TypeError,
                    CheckpointError) as exc:
                # TypeError: a well-formed command with a misnamed or
                # mistyped argument; the callee raised before acting.
                response = {"op": command.get("op"), "ok": False,
                            "error": f"{type(exc).__name__}: {exc}"}
            response["kind"] = "service_ack"
            response["sim_time"] = self.world.sim.now
            self._emit(response)

    # ------------------------------------------------------------------
    # The driver loop
    # ------------------------------------------------------------------
    def run(self) -> Optional[Any]:
        """Advance to the scenario horizon (or a stop command); returns
        the finished :class:`Figure3Result`, or None when stopped."""
        from ..experiments.figure3 import advance_world, finish_world
        world = self.world
        self._heartbeat()
        while not self.stopped and not world.done:
            self._process_commands()
            if self.stopped:
                break
            advance_world(world, max_events=self.step_events)
            self._maybe_auto_checkpoint()
            self._drain_trace()
            self._heartbeat()
        self._process_commands()
        if self.stopped:
            if self.checkpoint_dir is not None:
                self.checkpoint()
            self._drain_trace()
            self._emit({"kind": "service_stopped",
                        "sim_time": world.sim.now,
                        "events_executed": world.sim.events_executed})
            return None
        result = finish_world(world)
        self._drain_trace()
        self._emit({"kind": "service_end", "sim_time": world.sim.now,
                    "events_executed": world.sim.events_executed,
                    "rolls": result.rolls})
        return result


def _command_reader(fh: TextIO, service: EngineService) -> None:
    """Blocking reader thread: JSON lines -> service command queue."""
    for line in fh:
        line = line.strip()
        if not line:
            continue
        try:
            command = json.loads(line)
        except ValueError:
            service.submit({"op": "__parse_error__", "line": line[:200]})
            continue
        if isinstance(command, dict):
            service.submit(command)
        else:
            service.submit({"op": "__parse_error__", "line": line[:200]})


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run a scenario as a long-lived service with live "
                    "injections, streaming telemetry, and engine "
                    "checkpoint/restore.")
    parser.add_argument("--scenario", default="figure3_fastflex",
                        choices=sorted(SCENARIOS),
                        help="scenario world to serve")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--duration", type=float, default=120.0,
                        help="simulation horizon in seconds")
    parser.add_argument("--attack", action="store_true",
                        help="launch the scenario's attacker at build "
                             "time (default: start attack-free and wait "
                             "for attach-attack injections)")
    parser.add_argument("--restore", metavar="CKPT", default=None,
                        help="resume from an engine checkpoint instead "
                             "of building a fresh world")
    parser.add_argument("--step-events", type=int, default=500,
                        help="engine events per driver slice")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="directory for automatic checkpoints")
    parser.add_argument("--checkpoint-every-events", type=int, default=0,
                        metavar="N",
                        help="auto-checkpoint every N executed events "
                             "(0 = only explicit checkpoint commands)")
    parser.add_argument("--stream", metavar="FILE", default=None,
                        help="write JSONL telemetry (trace events + "
                             "heartbeats + acks) to FILE, or '-' for "
                             "stdout")
    parser.add_argument("--commands", metavar="FILE", default="-",
                        help="command stream (default '-': stdin)")
    parser.add_argument("--no-commands", action="store_true",
                        help="do not read commands at all (batch/CI use)")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the final metrics-registry snapshot "
                             "as JSON")
    parser.add_argument("--report-out", metavar="FILE", default=None,
                        help="write the finished run's figure3 report "
                             "text")
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    opened: List[TextIO] = []  # files this call opened and must close

    def open_arg(name: str, mode: str, std: TextIO) -> TextIO:
        if name == "-":
            return std
        opened.append(open(name, mode))
        return opened[-1]

    try:
        try:
            # Both files open before any world is built, so a bad path
            # is a usage error rather than a traceback after the build.
            stream = (None if args.stream is None
                      else open_arg(args.stream, "w", sys.stdout))
            command_fh = (None if args.no_commands
                          else open_arg(args.commands, "r", sys.stdin))
            checkpoint_dir = (None if args.checkpoint_dir is None
                              else Path(args.checkpoint_dir))
            if args.restore is not None:
                service = EngineService.from_checkpoint(
                    Path(args.restore), step_events=args.step_events,
                    checkpoint_every_events=args.checkpoint_every_events,
                    checkpoint_dir=checkpoint_dir, stream=stream)
            else:
                telemetry.reset()
                service = EngineService(
                    args.scenario, seed=args.seed, duration_s=args.duration,
                    step_events=args.step_events,
                    checkpoint_every_events=args.checkpoint_every_events,
                    checkpoint_dir=checkpoint_dir, stream=stream,
                    launch_attacker=args.attack)
        except (OSError, CheckpointError, ValueError) as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 2

        if command_fh is not None:
            threading.Thread(target=_command_reader,
                             args=(command_fh, service), daemon=True).start()
        result = service.run()

        if args.metrics_out is not None:
            telemetry.metrics().write_json(args.metrics_out)
        if args.report_out is not None and result is not None:
            from ..experiments.figure3 import format_report
            report = format_report({service.world.system: result},
                                   service.world.config)
            with open(args.report_out, "w") as fh:
                fh.write(report + "\n")
        return 0
    finally:
        for handle in opened:
            handle.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
