"""The composed FastFlex LFA defense (§4.2).

Wires the four building-block boosters — LFA detection, congestion-aware
rerouting, packet dropping, and topology obfuscation — into the single
multimode defense of Figure 2, on any topology.  This is the programmatic
face of the paper's case study; the Figure 3 experiment and the
quickstart example both build on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.controller import Deployment, FastFlexController
from ..netsim.fluid import FluidNetwork
from ..netsim.flows import FlowSet
from ..netsim.topology import FigureTwoNetwork, Topology
from .lfa_detector import ATTACK_TYPE, MITIGATION_MODE, LfaDetectorBooster
from .obfuscation import TopologyObfuscationBooster
from .packet_dropper import PacketDropperBooster
from .reroute import CongestionRerouteBooster


@dataclass
class LfaDefense:
    """The assembled defense: boosters plus their controller/deployment."""

    detector: LfaDetectorBooster
    reroute: CongestionRerouteBooster
    dropper: PacketDropperBooster
    obfuscation: TopologyObfuscationBooster
    controller: FastFlexController
    deployment: Optional[Deployment] = None

    def setup(self, flows: FlowSet) -> Deployment:
        """Run the controller's Figure 1 pipeline and install everything."""
        self.deployment = self.controller.setup(flows)
        return self.deployment

    @property
    def boosters(self) -> List:
        return [self.detector, self.reroute, self.dropper, self.obfuscation]

    def mitigation_active(self) -> bool:
        if self.deployment is None:
            return False
        return bool(self.deployment.bus.switches_in_mode(
            ATTACK_TYPE, MITIGATION_MODE))


def build_lfa_defense(topo: Topology, fluid: FluidNetwork,
                      protected_gateways: List[str],
                      detector: Optional[LfaDetectorBooster] = None,
                      reroute: Optional[CongestionRerouteBooster] = None,
                      dropper: Optional[PacketDropperBooster] = None,
                      obfuscation: Optional[TopologyObfuscationBooster] = None,
                      te_candidates: int = 4,
                      stability_guard_factory=None) -> LfaDefense:
    """Assemble the four-booster LFA defense on ``topo``.

    Pass pre-configured booster instances to override any default; the
    ablation benches use this to disable selective rerouting, drop the
    obfuscator, etc.
    """
    detector = detector if detector is not None else \
        LfaDetectorBooster(fluid=fluid)
    reroute = reroute if reroute is not None else \
        CongestionRerouteBooster(fluid=fluid,
                                 protected_gateways=protected_gateways)
    dropper = dropper if dropper is not None else \
        PacketDropperBooster(fluid=fluid)
    obfuscation = obfuscation if obfuscation is not None else \
        TopologyObfuscationBooster(fluid=fluid)
    if detector.fluid is None:
        detector.fluid = fluid
    if reroute.fluid is None:
        reroute.fluid = fluid
    if not reroute.protected_gateways:
        reroute.protected_gateways = list(protected_gateways)
    if dropper.fluid is None:
        dropper.fluid = fluid
    if obfuscation.fluid is None:
        obfuscation.fluid = fluid

    controller = FastFlexController(
        topo, [detector, reroute, dropper, obfuscation],
        te_candidates=te_candidates,
        stability_guard_factory=stability_guard_factory)
    return LfaDefense(detector=detector, reroute=reroute, dropper=dropper,
                      obfuscation=obfuscation, controller=controller)


def build_figure2_defense(net: FigureTwoNetwork, fluid: FluidNetwork,
                          **overrides) -> LfaDefense:
    """The defense on the paper's Figure 2 network: the protected
    gateway is the victim-side edge switch."""
    return build_lfa_defense(net.topo, fluid,
                             protected_gateways=[net.right_edge],
                             **overrides)
