"""Defense apps ("boosters") built on the FastFlex platform.

The §4.1 building blocks — LFA detection, packet dropping,
congestion-aware rerouting, topology obfuscation — plus the wider
catalog the paper's introduction surveys: heavy-hitter/volumetric DDoS
detection (HashPipe), hop-count filtering (NetHCF), and distributed
global rate limiting.
"""

from .base import (bloom_ppm, flow_table_ppm, hashpipe_ppm, logic_ppm,
                   parser_ppm, sketch_ppm)
from .heavy_hitter import (HeavyHitterBooster, HeavyHitterFilterProgram,
                           HeavyHitterProgram)
from .hop_count import (HopCountFilterBooster, HopCountFilterProgram,
                        INITIAL_TTLS, infer_hop_count)
from .lfa_defense import (LfaDefense, build_figure2_defense,
                          build_lfa_defense)
from .lfa_detector import (ATTACK_TYPE as LFA_ATTACK_TYPE, Detection,
                           LfaDetectorBooster, LfaDetectorProgram,
                           MITIGATION_MODE as LFA_MITIGATION_MODE)
from .netwarden import NetWardenBooster
from .obfuscation import ObfuscationProgram, TopologyObfuscationBooster
from .packet_dropper import PacketDropperBooster, PacketDropperProgram
from .poise import CONTEXT_HEADER, PoiseBooster
from .rate_limiter import (GlobalRateLimiterBooster, RateLimiterProgram,
                           TENANT_HEADER)
from .reroute import (BestPathEntry, CongestionRerouteBooster,
                      HulaProbeProgram)

__all__ = [
    "BestPathEntry", "CongestionRerouteBooster", "Detection",
    "GlobalRateLimiterBooster", "HeavyHitterBooster",
    "HeavyHitterFilterProgram", "HeavyHitterProgram",
    "HopCountFilterBooster", "HopCountFilterProgram", "HulaProbeProgram",
    "INITIAL_TTLS", "LFA_ATTACK_TYPE", "LFA_MITIGATION_MODE", "LfaDefense",
    "LfaDetectorBooster", "LfaDetectorProgram", "NetWardenBooster",
    "ObfuscationProgram", "CONTEXT_HEADER", "PoiseBooster",
    "PacketDropperBooster", "PacketDropperProgram", "RateLimiterProgram",
    "TENANT_HEADER", "TopologyObfuscationBooster", "bloom_ppm",
    "build_figure2_defense", "build_lfa_defense", "flow_table_ppm",
    "hashpipe_ppm", "infer_hop_count", "logic_ppm", "parser_ppm",
    "sketch_ppm",
]
