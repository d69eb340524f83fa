"""Dynamic scaling at runtime: repurposing switches (§3.4, Figure 1d).

When attack strength exceeds the best-effort plan, FastFlex repurposes
switches to run different programs.  The sequence modeled here follows
the paper exactly:

1. The switch **notifies its neighbors** before reconfiguring so they
   fast-reroute around it (Tofino-style reinstallation takes seconds of
   downtime — footnote 1; Trident-style partial reconfiguration is
   hitless).
2. Its defense **state is snapshotted and transferred** to the switch
   taking over, as FEC-protected state-carrying packets.
3. After the reconfiguration window, the new program set is installed,
   transferred state is imported, and neighbors are told to route back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional

from ..netsim.switch import ProgrammableSwitch, SwitchProgram
from ..netsim.topology import Topology
from ..telemetry import DEFAULT_BUCKETS, metrics, trace
from .state_transfer import StateTransferService, TransferResult

#: Program factory used by scale-out: builds a fresh runtime instance.
ProgramFactory = Callable[[], SwitchProgram]

_MET = metrics()
_TRACE = trace()
_C_REPURPOSES = _MET.counter(
    "repurpose_operations_total", "switch repurposing operations started")
_C_SCALE_OUTS = _MET.counter(
    "scale_out_operations_total", "booster replications onto new switches")
_H_DOWNTIME = _MET.histogram(
    "repurpose_downtime_seconds",
    "announced reconfiguration downtime per repurposing (0 for hitless)",
    buckets=DEFAULT_BUCKETS)

#: Delay between the neighbor notification and going down, giving the
#: notices time to arrive so fast reroute is armed.
NOTIFY_GRACE_S = 0.01


@dataclass
class RepurposeRecord:
    """What one repurposing operation did (for tests and benches)."""

    switch: str
    started_at: float
    downtime_s: float
    hitless: bool
    removed: List[str] = field(default_factory=list)
    installed: List[str] = field(default_factory=list)
    state_transfer_id: Optional[int] = None
    state_transfer_ok: Optional[bool] = None
    completed_at: Optional[float] = None


class ScalingManager:
    """Orchestrates runtime repurposing and booster scale-out."""

    def __init__(self, topo: Topology, state_service: StateTransferService,
                 reconfig_seconds: float = 2.0):
        if reconfig_seconds < 0:
            raise ValueError("reconfig_seconds must be non-negative")
        self.topo = topo
        self.sim = topo.sim
        self.state_service = state_service
        #: Tofino-style program reinstallation latency ("several seconds",
        #: footnote 1); the repurposing ablation sweeps this.
        self.reconfig_seconds = reconfig_seconds
        self.records: List[RepurposeRecord] = []

    # ------------------------------------------------------------------
    def repurpose(self, switch_name: str,
                  remove: Optional[List[str]] = None,
                  install: Optional[List[ProgramFactory]] = None,
                  transfer_state_to: Optional[str] = None,
                  hitless: bool = False,
                  on_complete: Optional[Callable[[RepurposeRecord], None]] = None
                  ) -> RepurposeRecord:
        """Swap the program set on a switch.

        ``remove`` names programs to uninstall (their state is shipped to
        ``transfer_state_to`` if given); ``install`` supplies factories
        for the replacement programs, installed once the reconfiguration
        window closes.
        """
        switch = self.topo.switch(switch_name)
        if switch.reconfiguring:
            raise RuntimeError(f"{switch_name} is already reconfiguring")
        record = RepurposeRecord(
            switch=switch_name, started_at=self.sim.now,
            downtime_s=0.0 if hitless else self.reconfig_seconds,
            hitless=hitless,
            removed=list(remove or []))
        self.records.append(record)
        _C_REPURPOSES.inc()
        _H_DOWNTIME.observe(record.downtime_s)
        if _TRACE.enabled:
            _TRACE.emit("repurpose_start", sim_time=self.sim.now,
                        switch=switch_name, hitless=hitless,
                        downtime_s=record.downtime_s,
                        removed=record.removed)

        switch.notify_neighbors_of_reconfig()
        self.sim.schedule(NOTIFY_GRACE_S, self._begin, switch, record,
                          remove or [], install or [], transfer_state_to,
                          hitless, on_complete)
        return record

    def _begin(self, switch: ProgrammableSwitch, record: RepurposeRecord,
               remove: List[str], install: List[ProgramFactory],
               transfer_state_to: Optional[str], hitless: bool,
               on_complete: Optional[Callable[[RepurposeRecord], None]]
               ) -> None:
        # Snapshot and ship outbound state before the programs vanish.
        if transfer_state_to is not None and remove:
            snapshot = {}
            for name in remove:
                if switch.has_program(name):
                    snapshot[name] = switch.get_program(name).export_state()
            if snapshot:
                record.state_transfer_id = self.state_service.send(
                    switch.name, transfer_state_to, snapshot,
                    on_complete=partial(_note_transfer, record))
        for name in remove:
            if switch.has_program(name):
                switch.remove_program(name)
        # Callbacks are partials of named functions, not closures, so a
        # world checkpointed mid-repurpose still pickles.
        switch.begin_reconfiguration(
            0.0 if hitless else self.reconfig_seconds,
            hitless=hitless,
            on_complete=partial(self._finish, switch, record, install,
                                on_complete))

    def _finish(self, switch: ProgrammableSwitch, record: RepurposeRecord,
                install: List[ProgramFactory],
                on_complete: Optional[Callable[[RepurposeRecord], None]]
                ) -> None:
        for factory in install:
            program = factory()
            switch.install_program(program)
            record.installed.append(program.name)
        record.completed_at = self.sim.now
        if _TRACE.enabled:
            _TRACE.emit(
                "repurpose_complete", sim_time=self.sim.now,
                switch=record.switch,
                elapsed_s=self.sim.now - record.started_at,
                installed=record.installed,
                state_transfer_ok=record.state_transfer_ok)
        if on_complete is not None:
            on_complete(record)

    # ------------------------------------------------------------------
    def scale_out(self, program_name: str, from_switch: str,
                  to_switch: str, factory: ProgramFactory,
                  on_ready: Optional[Callable[[bool], None]] = None) -> None:
        """Replicate a booster instance onto another switch (Fig. 1d's
        "Replicated E"): install a fresh instance there and seed it with
        the source instance's state."""
        source = self.topo.switch(from_switch)
        target = self.topo.switch(to_switch)
        program = factory()
        target.install_program(program)
        _C_SCALE_OUTS.inc()
        if _TRACE.enabled:
            _TRACE.emit("scale_out", sim_time=self.sim.now,
                        program=program_name, source=from_switch,
                        target=to_switch)

        if not source.has_program(program_name):
            raise KeyError(
                f"{from_switch} has no program {program_name!r} to copy")
        state = source.get_program(program_name).export_state()
        self.state_service.send(from_switch, to_switch,
                                {"program": program_name, "state": state},
                                on_complete=partial(_seed_program, program,
                                                    on_ready))

    def instances_of(self, program_name: str) -> List[str]:
        """Switches currently running the named program."""
        return [name for name in self.topo.switch_names
                if self.topo.switch(name).has_program(program_name)]


def _note_transfer(record: RepurposeRecord, result: TransferResult) -> None:
    record.state_transfer_ok = result.success


def _seed_program(program: SwitchProgram,
                  on_ready: Optional[Callable[[bool], None]],
                  result: TransferResult) -> None:
    if result.success:
        program.import_state(result.payload["state"])
    if on_ready is not None:
        on_ready(result.success)
