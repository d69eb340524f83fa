#!/usr/bin/env python3
"""One measured run of one benchmark workload (the BENCHMARK.json command).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--scale F] [--out FILE]

run from the root of a checkout.  Each invocation is one fresh process:
it builds and runs the workload's unit repeatedly for about ``--seconds``
seconds (never fewer than two units), checks every unit's outputs, prints
every metric by name with its unit, and ends with one JSON line::

    {"correct": true, "attempted": 70, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over the units,
tracing off).  ``--trace 1`` is the separate traced run: one untraced
unit for the exact counts, then sampled units for the per-layer time
split, then the direct-call probes; it reports the per-layer metrics.
``--scale`` shrinks the simulated horizon (tests use 0.05); ``--out``
also writes the per-unit raw values, digests and machine fingerprint.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
MIN_UNITS = 2
TRACE_ROUNDS = 2
WARMUP_SCALE = 0.05


def use_checkout_source() -> str:
    """Put this checkout's ``src`` first on the path and insist that
    ``repro`` really comes from there; returns the package directory."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([package_dir, src]) != src:
        raise SystemExit(f"repro was imported from {package_dir}, not from "
                         f"this checkout's {src}")
    return package_dir


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------

def canonical(value: Any) -> Any:
    """``value`` as plain JSON data: dataclasses and objects by field,
    enums by name, sets sorted, mapping keys as strings."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def sim_digest(stats: Dict[str, Any]) -> str:
    text = json.dumps(canonical(stats), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pinned() -> Dict[str, Any]:
    """bench/digests.json: the seed and scale the digests are pinned on,
    and one digest per workload."""
    with open(os.path.join(BENCH_DIR, "digests.json")) as handle:
        return json.load(handle)


def declared(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, from
    BENCHMARK.json, the one place they are declared."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {spec["name"]: spec["unit"]
                for spec in json.load(handle)[kind]}


# ----------------------------------------------------------------------
# Measuring one unit
# ----------------------------------------------------------------------

def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set any one process of the run reached."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclasses.dataclass
class Measured:
    setup_s: float
    wall_s: float
    cpu_s: float
    digest: str
    unit: Any


class Runner:
    """Runs units of one workload from a clean process-global state."""

    def __init__(self, workload, seed: int, scale: float):
        from repro.checkpoint import capture_globals
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self._base = capture_globals()

    def reset_globals(self) -> None:
        """Telemetry and the process-wide id sequences as they were when
        the process started."""
        from repro.checkpoint import restore_globals
        restore_globals(self._base)

    def unit(self, scale: Optional[float] = None, inline: bool = False,
             sampler=None) -> Measured:
        gc.collect()
        # Every unit starts from the same process state, so each one
        # simulates exactly the same thing.
        self.reset_globals()
        start = time.perf_counter()
        world = self.workload.setup(
            self.seed, self.scale if scale is None else scale)
        built = time.perf_counter()
        cpu_start = cpu_seconds()
        if sampler is not None:
            with sampler:
                unit = self.workload.run(world, inline=inline)
        else:
            unit = self.workload.run(world, inline=inline)
        done = time.perf_counter()
        cpu = cpu_seconds() - cpu_start
        digest = sim_digest(unit.stats)
        unit.stats = {}     # digested; do not keep a unit's output alive
        return Measured(setup_s=built - start, wall_s=done - built,
                        cpu_s=cpu, digest=digest, unit=unit)


class Verdicts:
    """Output checks across the units of one invocation."""

    def __init__(self, workload_name: str, seed: int, scale: float):
        self.attempted = 0
        self.failures: List[str] = []
        pins = pinned()
        self.reference = (pins["digests"].get(workload_name)
                          if (seed, scale) == (pins["seed"], pins["scale"])
                          else None)
        self.reference_is_pinned = self.reference is not None

    def take(self, measured: Measured, label: str) -> None:
        unit = measured.unit
        self.attempted += unit.checks + 1
        self.failures.extend(f"{label}: {what}" for what in unit.failures)
        if self.reference is None:
            self.reference = measured.digest
        elif measured.digest != self.reference:
            against = ("the digest pinned in bench/digests.json"
                       if self.reference_is_pinned
                       else "the first unit's digest")
            self.failures.append(
                f"{label}: sim_digest {measured.digest[:16]} differs from "
                f"{against} {self.reference[:16]}")


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------

def timed_run(runner: Runner, verdicts: Verdicts,
              seconds: float) -> Dict[str, Any]:
    units: List[Measured] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(units) >= MIN_UNITS and \
                elapsed + elapsed / len(units) > seconds:
            break
        measured = runner.unit()
        verdicts.take(measured, f"unit {len(units)}")
        units.append(measured)
    sim_seconds = units[0].unit.sim_seconds
    raw = {
        "wall_s": [m.wall_s for m in units],
        "setup_s": [m.setup_s for m in units],
        "cpu_s": [m.cpu_s for m in units],
        "sim_rate": [sim_seconds / m.wall_s for m in units],
    }
    metrics = {name: statistics.median(values)
               for name, values in raw.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {"metrics": metrics, "raw": raw,
            "digest": units[0].digest, "units": len(units)}


def traced_run(runner: Runner, verdicts: Verdicts,
               package_dir: str) -> Dict[str, Any]:
    from layers import BOOSTER_BUCKETS, LAYERS
    from metrics import layer_counts
    from probes import ProbeFailure, run_probes
    from sampler import Sampler

    # Exact counts come from an ordinary untraced unit.
    plain = runner.unit()
    verdicts.take(plain, "untraced unit")
    metrics = layer_counts(plain.unit.snapshot, plain.unit.extra,
                           plain.wall_s, plain.unit.packets)

    # The sampler sees one process: multi-process workloads run inline
    # (same regions, same windows, same simulated results).
    sampler = Sampler(package_dir)
    base_walls, traced_walls = [], []
    for round_index in range(TRACE_ROUNDS):
        base = runner.unit(inline=True)
        verdicts.take(base, f"inline unit {round_index}")
        base_walls.append(base.wall_s)
        traced = runner.unit(inline=True, sampler=sampler)
        verdicts.take(traced, f"traced unit {round_index}")
        traced_walls.append(traced.wall_s)

    self_s, incl_s, unattributed = sampler.by_layer()
    total = sampler.total_seconds()
    for bucket in LAYERS + tuple(f"boosters.{b}" for b in BOOSTER_BUCKETS):
        seconds = self_s.get(bucket, 0.0) / TRACE_ROUNDS
        metrics[f"{bucket}.self_s"] = seconds
        metrics[f"{bucket}.share"] = self_s.get(bucket, 0.0) / total
        metrics[f"{bucket}.incl_s"] = incl_s.get(bucket, 0.0) / TRACE_ROUNDS
    metrics["trace.samples"] = float(sampler.total_samples())
    metrics["trace.attributed_share"] = 1.0 - unattributed / total
    metrics["trace.overhead"] = min(traced_walls) / min(base_walls)

    verdicts.attempted += 1
    runner.reset_globals()
    try:
        metrics.update(run_probes())
    except ProbeFailure as failure:
        verdicts.failures.append(f"probe: {failure}")
    return {"metrics": metrics, "digest": plain.digest,
            "traced_wall_s": traced_walls, "inline_wall_s": base_walls,
            "samples": sampler.dump()}


# ----------------------------------------------------------------------

def fingerprint() -> Dict[str, Any]:
    """The machine and its load, recorded beside every number."""
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "loadavg": list(os.getloadavg())}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    package_dir = use_checkout_source()
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    import workloads
    workload = workloads.by_name(args.workload)
    if workload is None:
        known = ", ".join(w.name for w in workloads.WORKLOADS)
        parser.error(f"unknown workload {args.workload!r}; one of {known}")

    before = fingerprint()
    runner = Runner(workload, args.seed, args.scale)
    verdicts = Verdicts(workload.name, args.seed, args.scale)
    # Untimed warm-up: imports, lazy set-up, allocator arenas.
    runner.unit(scale=min(args.scale, WARMUP_SCALE))
    if args.trace:
        result = traced_run(runner, verdicts, package_dir)
    else:
        result = timed_run(runner, verdicts, args.seconds)

    units = declared("per_layer" if args.trace else "end_to_end")
    if set(result["metrics"]) != set(units):
        raise SystemExit("measured and declared metric names differ: "
                         f"{sorted(set(result['metrics']) ^ set(units))}")
    for name in sorted(result["metrics"]):
        print(f"{name:34s} {result['metrics'][name]:16.6f} {units[name]}")
    for failure in verdicts.failures:
        print(f"FAILED {failure}")
    line = {
        "correct": not verdicts.failures,
        "attempted": verdicts.attempted,
        "failed": len(verdicts.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }
    if args.out:
        after = fingerprint()
        detail = dict(result, workload=workload.name, seed=args.seed,
                      seconds=args.seconds, scale=args.scale,
                      trace=args.trace, failures=verdicts.failures,
                      fingerprint=before,
                      loadavg_after=after["loadavg"],
                      noisy=before["loadavg"][0] > (os.cpu_count() or 1),
                      line=line)
        with open(args.out, "w") as handle:
            json.dump(detail, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
