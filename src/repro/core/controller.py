"""The FastFlex control plane: compile, plan, deploy.

The controller runs *once at setup time* (and occasionally thereafter):
it performs the Figure 1 pipeline — gather booster dataflow graphs (a),
jointly analyze and merge them (b), place the merged graph onto the
network and compute default-mode TE (c) — and installs everything.  At
runtime it stays out of the loop: mode changes are the data plane's job
(Section 3.3), which is exactly what distinguishes FastFlex from the
SDN baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..netsim.flows import FlowSet
from ..netsim.routing import (install_fast_reroute_alternates,
                              install_host_routes, install_switch_routes)
from ..netsim.topology import Topology
from .analyzer import MergedGraph, ProgramAnalyzer
from .booster import Booster, BoosterRegistry
from .mode_protocol import ModeChangeAgent, install_mode_agents
from .modes import ModeEventBus, ModeRegistry
from .scaling import ScalingManager
from .scheduler import Placement, Scheduler
from .stability import StabilityGuard
from .state_transfer import StateTransferService
from .te import TeResult, greedy_min_max_te
from .verify import verify_catalog


def _default_stability_guard(_switch) -> StabilityGuard:
    """Default per-switch guard factory (picklable, unlike a lambda)."""
    return StabilityGuard()


class BoosterVerificationError(RuntimeError):
    """Raised when the §6 verifier finds error-severity problems."""


@dataclass
class Deployment:
    """Everything the controller set up, handed to runtimes and tests."""

    topo: Topology
    boosters: BoosterRegistry
    mode_registry: ModeRegistry
    bus: ModeEventBus
    merged: MergedGraph
    placement: Placement
    te: TeResult
    flows: FlowSet
    mode_agents: Dict[str, ModeChangeAgent] = field(default_factory=dict)
    state_service: Optional[StateTransferService] = None
    scaling: Optional[ScalingManager] = None

    def agent(self, switch: str) -> ModeChangeAgent:
        try:
            return self.mode_agents[switch]
        except KeyError:
            raise KeyError(f"no mode agent on {switch!r}") from None

    def switches_hosting(self, ppm_name: str) -> List[str]:
        return self.placement.switches_hosting(ppm_name)


class FastFlexController:
    """Setup-time orchestrator.

    Typical use::

        controller = FastFlexController(topo, boosters)
        deployment = controller.setup(flows)

    after which the network self-manages: detectors watch traffic,
    mode-change probes flood on detection, and the controller is only
    needed again for re-planning around new boosters.
    """

    def __init__(self, topo: Topology, boosters: List[Booster],
                 pervasive_detection: bool = True,
                 te_candidates: int = 4,
                 stability_guard_factory=None):
        self.topo = topo
        self.registry = BoosterRegistry()
        for booster in boosters:
            self.registry.register(booster)
        self.mode_registry = ModeRegistry()
        for booster in boosters:
            for spec in booster.modes():
                self.mode_registry.register(spec)
            if booster.always_on():
                self.mode_registry.always_on.add(booster.name)
        self.bus = ModeEventBus()
        self.analyzer = ProgramAnalyzer()
        self.scheduler = Scheduler(pervasive_detection=pervasive_detection)
        self.te_candidates = te_candidates
        # A module-level default (not a lambda): controllers live inside
        # engine checkpoints, and closures cannot be pickled.
        self.stability_guard_factory = (
            stability_guard_factory
            if stability_guard_factory is not None
            else _default_stability_guard)

    # ------------------------------------------------------------------
    # The Figure 1 pipeline
    # ------------------------------------------------------------------
    def compile(self) -> MergedGraph:
        """Steps (a)+(b): dataflow graphs, joint analysis, merged graph."""
        graphs = [b.dataflow() for b in self.registry.all()]
        return self.analyzer.merge(graphs)

    def plan_te(self, flows: FlowSet) -> TeResult:
        """Default-mode TE over the stable traffic matrix."""
        return greedy_min_max_te(self.topo, list(flows),
                                 k=self.te_candidates)

    def place(self, merged: MergedGraph, te: TeResult) -> Placement:
        """Step (c): map the merged graph onto the network."""
        paths = [te.paths[fid] for fid in sorted(te.paths)]
        return self.scheduler.place(merged, self.topo, paths)

    # ------------------------------------------------------------------
    def setup(self, flows: FlowSet,
              install_routes: bool = True) -> Deployment:
        """Run the full pipeline and install everything.

        The §6 booster verifier runs first, and deployment is refused on
        any error-severity finding.
        """
        report = verify_catalog(
            self.registry.all(),
            n_switches=max(len(self.topo.switch_names), 1))
        if not report.ok:
            raise BoosterVerificationError(str(report))
        if install_routes:
            install_host_routes(self.topo)
            install_switch_routes(self.topo)
            install_fast_reroute_alternates(self.topo)

        te = self.plan_te(flows)
        merged = self.compile()
        placement = self.place(merged, te)

        mode_agents = install_mode_agents(
            self.topo, self.mode_registry, bus=self.bus,
            guard_factory=self.stability_guard_factory)

        state_service = StateTransferService(self.topo)
        state_service.install_agents()
        scaling = ScalingManager(self.topo, state_service)

        self._install_placement(placement)

        deployment = Deployment(
            topo=self.topo, boosters=self.registry,
            mode_registry=self.mode_registry, bus=self.bus,
            merged=merged, placement=placement, te=te, flows=flows,
            mode_agents=mode_agents, state_service=state_service,
            scaling=scaling)
        for booster in self.registry.all():
            booster.on_deployed(deployment)
        return deployment

    def _install_placement(self, placement: Placement) -> None:
        """Instantiate every placed PPM that has a runtime factory."""
        for switch_name in sorted(placement.assignments):
            switch = self.topo.switch(switch_name)
            for spec in placement.assignments[switch_name]:
                if spec.factory is None:
                    continue
                if switch.has_program(spec.qualified_name):
                    continue
                program = spec.factory(switch)
                program.name = spec.qualified_name
                # The scheduler already budgeted this PPM on a trial
                # ledger; the switch's real ledger enforces it again.
                switch.install_program(program)
