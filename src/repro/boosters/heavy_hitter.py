"""Heavy-hitter / volumetric DDoS booster (HashPipe-based, [69, 70]).

Detects sources (or flows) whose byte counts dominate, entirely in the
data plane, and — in its mitigation mode — rate-limits them.  With a
:class:`~repro.core.sync.DetectorSyncAgent` attached, the detection
becomes *network-wide*: each instance contributes its local HashPipe
totals and thresholds on the merged view ([34]'s network-wide heavy
hitters).
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Hashable, List, Optional

from ..core.booster import Booster, GatedProgram
from ..core.dataflow import DataflowGraph
from ..core.modes import ModeSpec
from ..core.ppm import PpmRole
from ..dataplane.hashpipe import HashPipe
from ..dataplane.resources import ResourceVector
from ..netsim.packet import Packet, PacketKind
from ..netsim.switch import Drop, ProgrammableSwitch, ProgramResult
from .base import hashpipe_ppm, logic_ppm, parser_ppm

ATTACK_TYPE = "ddos"
FILTER_MODE = "ddos_filter"

#: The deployed HashPipe's geometry.
STAGES = 4
SLOTS_PER_STAGE = 64


class HeavyHitterProgram(GatedProgram):
    """Per-switch HashPipe counting bytes per source."""

    supports_batch = True

    def __init__(self, booster_name: str, name: str, stages: int = STAGES,
                 slots_per_stage: int = SLOTS_PER_STAGE):
        pipe = HashPipe(f"{name}.pipe", stages=stages,
                        slots_per_stage=slots_per_stage)
        super().__init__(booster_name, name, pipe.resource_requirement())
        self.pipe = pipe
        #: Snapshot of the last *completed* tumbling window, captured by
        #: :meth:`roll_window` just before the counters reset.  Without
        #: it, a sync agent polling between the reset and the next
        #: window's traffic reads an empty pipe and briefly erases the
        #: heavy hitters from the network-wide view.
        self._last_window: Optional[Dict[Hashable, int]] = None

    def process_enabled(self, switch: ProgrammableSwitch,
                        packet: Packet) -> ProgramResult:
        if packet.kind != PacketKind.DATA:
            return None
        self.pipe.update(packet.src, packet.size_bytes)
        return None

    def process_batch_enabled(self, switch: ProgrammableSwitch,
                              batch) -> None:
        mask = batch.data_mask()
        if batch.all_data:
            # Whole-column fast path: no gather copy needed.
            self.pipe.update_batch(batch.src, batch.size_bytes)
            return
        selected = list(compress(zip(batch.src, batch.size_bytes), mask))
        if selected:
            self.pipe.update_batch([pair[0] for pair in selected],
                                   [pair[1] for pair in selected])

    def roll_window(self) -> Dict[Hashable, int]:
        """Close the current tumbling window: snapshot its counters,
        clear the pipe, and return the snapshot."""
        window = dict(self.pipe.heavy_hitters(1))
        self._last_window = window
        self.pipe.clear()
        return window

    def local_counts(self) -> Dict[Hashable, float]:
        """Counter source for a DetectorSyncAgent.

        Serves the last completed window when tumbling windows are in
        use (:meth:`roll_window` has run), so polling is race-free
        against the reset; falls back to the live counters otherwise.
        """
        source = (self._last_window if self._last_window is not None
                  else self.pipe.heavy_hitters(1))
        return {key: float(count) for key, count in source.items()}

    def export_state(self) -> Dict:
        return self.pipe.export_state()

    def import_state(self, state: Dict) -> None:
        self.pipe.import_state(state)


class HeavyHitterFilterProgram(GatedProgram):
    """Mitigation-mode filter: drops packets from flagged sources."""

    supports_batch = True

    def __init__(self, booster_name: str, name: str):
        super().__init__(booster_name, name,
                         ResourceVector(stages=1, sram_mb=0.1, alus=1))
        self.flagged: set = set()
        self.packets_dropped = 0

    def flag(self, source: str) -> None:
        self.flagged.add(source)

    def unflag_all(self) -> None:
        self.flagged.clear()

    def process_enabled(self, switch: ProgrammableSwitch,
                        packet: Packet) -> ProgramResult:
        if packet.kind != PacketKind.DATA:
            return None
        if packet.src in self.flagged:
            self.packets_dropped += 1
            return Drop("heavy_hitter")
        return None

    def process_batch_enabled(self, switch: ProgrammableSwitch,
                              batch) -> None:
        """Pre-filter stage: flagged-source membership mask over the
        whole src column; survivors pass through untouched."""
        flagged = self.flagged
        if not flagged:
            return
        mask = batch.data_mask()
        src = batch.src
        # isdisjoint scans the column at C speed (short-circuiting on the
        # first hit); only windows that actually contain flagged sources
        # pay for the per-index scan.
        if flagged.isdisjoint(src):
            return
        if batch.all_data:
            hits = [i for i, s in enumerate(src) if s in flagged]
        else:
            hits = [i for i, s in enumerate(src)
                    if mask[i] and s in flagged]
        self.packets_dropped += len(hits)
        for i in hits:
            batch.drop(i, "heavy_hitter")

    def export_state(self) -> Dict:
        return {"flagged": sorted(self.flagged)}

    def import_state(self, state: Dict) -> None:
        self.flagged = set(state.get("flagged", []))


class HeavyHitterBooster(Booster):
    """Volumetric DDoS detection (always on) + filtering (mode-gated)."""

    name = "heavy_hitter"
    attack_types = (ATTACK_TYPE,)

    def __init__(self, byte_threshold: int = 1_000_000,
                 check_period_s: Optional[float] = None,
                 clear_after_s: float = 5.0):
        self.byte_threshold = byte_threshold
        #: When set, a periodic detect->mode->flag loop runs on every
        #: detector switch after deployment (the self-driving defense);
        #: ``None`` leaves triggering to the caller (unit-test mode).
        self.check_period_s = check_period_s
        #: Revert to the default mode after this long with no source
        #: above threshold in a fresh counting window.
        self.clear_after_s = clear_after_s
        self.detectors: Dict[str, HeavyHitterProgram] = {}
        self.filters: Dict[str, HeavyHitterFilterProgram] = {}
        self.detection_events: List[tuple] = []
        self._active_since: Optional[float] = None
        self._last_seen_heavy: Optional[float] = None

    def always_on(self) -> bool:
        return True  # counting runs in the default mode; filtering is gated

    def modes(self) -> List[ModeSpec]:
        return [ModeSpec.of(FILTER_MODE, ATTACK_TYPE,
                            boosters_on=(f"{self.name}.filter",))]

    # ------------------------------------------------------------------
    def dataflow(self) -> DataflowGraph:
        graph = DataflowGraph(self.name)
        graph.add_ppm(parser_ppm(
            self.name, "parser", base=("src", "dst", "size_bytes")))
        graph.add_ppm(hashpipe_ppm(
            self.name, "counter", stages=STAGES,
            slots_per_stage=SLOTS_PER_STAGE,
            factory=self._make_detector))
        graph.add_ppm(logic_ppm(
            self.name, "filter", PpmRole.MITIGATION,
            ResourceVector(stages=1, sram_mb=0.1, alus=1),
            factory=self._make_filter))
        graph.add_edge("parser", "counter", weight=10)
        graph.add_edge("counter", "filter", weight=4)
        return graph

    def _make_detector(self, switch: ProgrammableSwitch) -> HeavyHitterProgram:
        program = HeavyHitterProgram(self.name, f"{self.name}.counter")
        self.detectors[switch.name] = program
        return program

    def _make_filter(self,
                     switch: ProgrammableSwitch) -> HeavyHitterFilterProgram:
        # The filter sub-booster has its own gating name so the mode can
        # turn it on while the counter stays always-on.
        program = HeavyHitterFilterProgram(f"{self.name}.filter",
                                           f"{self.name}.filter")
        self.filters[switch.name] = program
        return program

    # ------------------------------------------------------------------
    def heavy_sources(self, switch_name: str) -> Dict[Hashable, int]:
        """Local heavy hitters at one detector: sources over
        ``byte_threshold``."""
        detector = self.detectors.get(switch_name)
        if detector is None:
            return {}
        return detector.pipe.heavy_hitters(self.byte_threshold)

    def flag_everywhere(self, source: str) -> None:
        for program in self.filters.values():
            program.flag(source)

    # ------------------------------------------------------------------
    # Self-driving runtime (detect -> mode change -> flag -> revert)
    # ------------------------------------------------------------------
    def on_deployed(self, deployment) -> None:
        if self.check_period_s is None:
            return
        sim = deployment.topo.sim
        for switch_name in sorted(self.detectors):
            if switch_name in deployment.mode_agents:
                sim.every(self.check_period_s, self._check, deployment,
                          switch_name, start=self.check_period_s)

    def _check(self, deployment, switch_name: str) -> None:
        """One detector's periodic pass over its HashPipe."""
        sim = deployment.topo.sim
        # Tumbling window: roll_window snapshots the window's counters
        # *before* resetting them, so concurrent local_counts() readers
        # (sync agents) keep seeing the completed window instead of the
        # momentarily-empty pipe.  The threshold applies to one check
        # period's bytes.
        window = self.detectors[switch_name].roll_window()
        heavy = {key: count for key, count in window.items()
                 if count >= self.byte_threshold}
        agent = deployment.mode_agents[switch_name]
        if heavy:
            self._last_seen_heavy = sim.now
            for source in sorted(heavy):
                self.flag_everywhere(source)
            if agent.mode_table.mode_for(ATTACK_TYPE) != FILTER_MODE:
                if agent.initiate(ATTACK_TYPE, FILTER_MODE):
                    self._active_since = sim.now
                    self.detection_events.append(
                        (sim.now, switch_name, dict(heavy)))
            return
        # Nothing heavy here: revert once every window has been quiet
        # long enough (only the activating switch drives the revert).
        if (self._active_since is not None
                and self._last_seen_heavy is not None
                and agent.mode_table.mode_for(ATTACK_TYPE) == FILTER_MODE
                and sim.now - self._last_seen_heavy >= self.clear_after_s):
            if agent.initiate(ATTACK_TYPE, "default"):
                self._active_since = None
                for program in self.filters.values():
                    program.unflag_all()
