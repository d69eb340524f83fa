"""FastFlex core: the paper's primary contribution.

Decomposition and sharing of defense modules (analyzer), placement
(scheduler), default-mode traffic engineering, the multimode data plane
with its distributed mode-change protocol, detector synchronization,
stability guards, dynamic scaling, and FEC-protected state transfer —
orchestrated by :class:`~repro.core.controller.FastFlexController`.
"""

from .analyzer import MergedGraph, MergeReport, ProgramAnalyzer
from .booster import Booster, BoosterRegistry, GatedProgram
from .controller import (BoosterVerificationError, Deployment,
                         FastFlexController)
from .dataflow import DataflowEdge, DataflowGraph
from .equivalence import EquivalenceClasses, merge_parsers
from .mode_protocol import (NETWORK_WIDE_SCOPE, ModeChangeAgent,
                            install_mode_agents)
from .modes import (DEFAULT_MODE, ModeChangeEvent, ModeEventBus,
                    ModeRegistry, ModeSpec, ModeTable)
from .ppm import PpmKind, PpmRole, PpmSignature, PpmSpec
from .scaling import ProgramFactory, RepurposeRecord, ScalingManager
from .scheduler import (Placement, PlacementMetrics, Scheduler,
                        SchedulerError)
from .stability import GuardStats, StabilityGuard
from .state_transfer import (CriticalStateReplicator, StateTransferAgent,
                             StateTransferService, TransferResult,
                             state_to_words, words_to_state)
from .sync import DetectorSyncAgent, SyncStats
from .verify import (BoosterVerifier, Finding, Severity,
                     VerificationReport, verify_catalog)
from .te import (TeResult, greedy_min_max_te, link_loads,
                 max_link_utilization, rebalance_excluding_links)

__all__ = [
    "Booster", "BoosterRegistry", "BoosterVerificationError",
    "BoosterVerifier", "CriticalStateReplicator", "DEFAULT_MODE",
    "Finding", "Severity", "VerificationReport", "verify_catalog",
    "DataflowEdge", "DataflowGraph", "Deployment", "DetectorSyncAgent",
    "EquivalenceClasses", "FastFlexController", "GatedProgram",
    "GuardStats", "MergeReport", "MergedGraph", "ModeChangeAgent",
    "ModeChangeEvent", "ModeEventBus", "ModeRegistry", "ModeSpec", "ModeTable",
    "NETWORK_WIDE_SCOPE", "Placement", "PlacementMetrics", "PpmKind",
    "PpmRole", "PpmSignature", "PpmSpec", "ProgramAnalyzer",
    "ProgramFactory", "RepurposeRecord", "ScalingManager", "Scheduler",
    "SchedulerError", "StabilityGuard", "StateTransferAgent",
    "StateTransferService", "SyncStats", "TeResult", "TransferResult",
    "greedy_min_max_te", "install_mode_agents", "link_loads",
    "max_link_utilization", "merge_parsers",
    "rebalance_excluding_links", "state_to_words", "words_to_state",
]
