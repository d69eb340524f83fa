"""The one module -> layer table of the benchmark.

A *layer* is a group of ``src/repro`` modules whose host time and work
counts are reported together (``<layer>.<metric>`` in BENCHMARK.json).
The sampler (:mod:`bench.sampler`) charges each sample to the layer of
the module its leaf ``repro`` frame lives in; the booster modules the
paper names additionally get a bucket of their own.

Rules are path prefixes relative to ``src/repro`` and the longest match
wins.  There is deliberately no catch-all: a new module that matches no
rule fails ``bench/tests`` until somebody decides which layer pays for it.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

LAYERS: Tuple[str, ...] = (
    "engine", "links", "switch", "dataplane", "boosters", "fluid",
    "routing", "modes", "control", "attacks", "monitor", "telemetry",
    "checkpoint", "shard", "harness",
)

#: Booster modules that also get a ``boosters.<module>`` bucket.
BOOSTER_BUCKETS: Tuple[str, ...] = (
    "reroute", "lfa_detector", "heavy_hitter", "packet_dropper",
    "hop_count", "obfuscation",
)

_RULES: Dict[str, str] = {
    "netsim/engine.py": "engine",
    "netsim/links.py": "links",
    "netsim/node.py": "links",
    "netsim/packet.py": "links",
    "netsim/switch.py": "switch",
    "dataplane/": "dataplane",
    "boosters/": "boosters",
    "netsim/fluid.py": "fluid",
    "netsim/flows.py": "fluid",
    "netsim/routing.py": "routing",
    "netsim/routecache.py": "routing",
    "netsim/topology.py": "routing",
    "core/mode_protocol.py": "modes",
    "core/modes.py": "modes",
    "core/stability.py": "modes",
    "core/": "control",
    "attacks/": "attacks",
    "baselines/": "attacks",
    "netsim/monitor.py": "monitor",
    "netsim/traceroute.py": "monitor",
    "netsim/sources.py": "monitor",
    "netsim/traffic.py": "monitor",
    "netsim/workloads.py": "monitor",
    "telemetry/": "telemetry",
    "checkpoint/": "checkpoint",
    "shard/": "shard",
    # Drivers and tooling: thin wrappers around the layers above, or code
    # no workload executes.
    "experiments/": "harness",
    "sweep/": "harness",
    "lint/": "harness",
    "netsim/__init__.py": "harness",
    "__init__.py": "harness",
    "__main__.py": "harness",
}


def layer_of(relpath: str) -> Optional[str]:
    """Layer of a module path relative to ``src/repro`` (``/``-separated),
    or ``None`` when no rule covers it."""
    best = ""
    for prefix in _RULES:
        if len(prefix) > len(best) and (
                relpath == prefix
                or (prefix.endswith("/") and relpath.startswith(prefix))):
            best = prefix
    return _RULES.get(best)


def bucket_of(relpath: str) -> Optional[str]:
    """``boosters.<module>`` bucket of a module path, if it has one."""
    head, _, tail = relpath.partition("/")
    stem = tail[:-3] if tail.endswith(".py") else tail
    if head == "boosters" and stem in BOOSTER_BUCKETS:
        return f"boosters.{stem}"
    return None


def repro_relpath(filename: str, package_dir: str) -> Optional[str]:
    """``filename`` relative to the ``repro`` package directory, or
    ``None`` for files outside it (stdlib, numpy, the benchmark)."""
    if not filename.startswith(package_dir):
        return None
    return filename[len(package_dir):].lstrip(os.sep).replace(os.sep, "/")
