#!/usr/bin/env python3
"""Compare two ``bench/suite.py`` results: parent A, change B.

    python3 bench/compare.py A.json B.json

Both must have been recorded the same way (seed, runs, seconds, scale,
workloads); anything else is refused, exit 2.  One row per workload, one
verdict per (workload, end-to-end metric), from the bounds in
``BENCHMARK.json`` and the recorded quartiles:

* ``worse``       — B's median is worse than A's by more than the bound.
* ``worse<bound`` — every run of B is worse than every run of A, by less
  than the bound: a real slowdown that does not reject the change.
* ``better``      — every run of B beats every run of A, or B's median
  is better than A's by more than either side's inter-quartile distance.
* ``same``        — neither, and the runs are steady enough to say so.
* ``unresolved``  — the run-to-run spread of either side exceeds the
  bound and the two sets of runs overlap: the benchmark cannot tell.

The simulated results must not have moved: the sim digest of every seed,
the traced run's digest, and every per-layer metric that is an exact
count (unit ``count``, ``ratio`` of counts, or ``B``) must be identical
in A and B.  Exits 1 on any ``worse``, any such difference or any failed
output check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
#: Units of the per-layer metrics that repeat exactly on a seed.
EXACT_UNITS = ("count", "ratio", "B")
RECORDED_WITH = ("seed", "runs", "seconds", "scale")


def verdict(parent: Dict[str, Any], change: Dict[str, Any], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    # Positive when the change is worse, as a share of the parent.
    worsening = sign * (change["median"] - parent["median"]) \
        / parent["median"]
    a = [sign * v for v in parent["values"]]
    b = [sign * v for v in change["values"]]
    if max(b) < min(a):
        return "better"
    if min(b) > max(a):
        return "worse" if worsening > bound else "worse<bound"
    if max(parent["spread"], change["spread"]) > bound:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > parent["spread"] and -worsening > change["spread"]:
        return "better"
    return "same"


def recorded_differently(parent: Dict[str, Any],
                         change: Dict[str, Any]) -> List[str]:
    """Why the two results cannot be compared (empty when they can)."""
    reasons = [f"{key}: A {parent[key]!r}, B {change[key]!r}"
               for key in RECORDED_WITH if parent[key] != change[key]]
    if set(parent["workloads"]) != set(change["workloads"]):
        reasons.append(f"workloads: A {sorted(parent['workloads'])}, "
                       f"B {sorted(change['workloads'])}")
    return reasons


def simulated_differences(a: Dict[str, Any], b: Dict[str, Any],
                          exact: List[str]) -> List[str]:
    """What differs between one workload's simulated results in A and B."""
    found = [f"sim_digest differs on seed {seed}"
             for seed, digest in a["digests"].items()
             if b["digests"][seed] != digest]
    if a["traced_digest"] != b["traced_digest"]:
        found.append("traced run's sim_digest differs")
    found.extend(
        f"{name} differs: A {a['per_layer'][name]!r}, "
        f"B {b['per_layer'][name]!r}"
        for name in exact if a["per_layer"][name] != b["per_layer"][name])
    return found


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(args.parent) as handle:
        parent = json.load(handle)
    with open(args.change) as handle:
        change = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    specs = benchmark["end_to_end"]
    exact = [spec["name"] for spec in benchmark["per_layer"]
             if spec["unit"] in EXACT_UNITS]

    reasons = recorded_differently(parent, change)
    if reasons:
        print("A and B were not recorded the same way, no verdict:")
        for reason in reasons:
            print(f"  {reason}")
        return 2
    for side, result in (("A", parent), ("B", change)):
        if result.get("noisy"):
            print(f"note: {side} was recorded on a loaded machine "
                  f"(loadavg {result['loadavg_before'][0]:.2f})")
    print(f"{'workload':22s} " + " ".join(
        f"{spec['name']:>27s}" for spec in specs))
    bad = 0
    for name, a in parent["workloads"].items():
        b = change["workloads"][name]
        cells = []
        for spec in specs:
            pa = a["end_to_end"][spec["name"]]
            pb = b["end_to_end"][spec["name"]]
            what = verdict(pa, pb, spec["better"], spec["bound"])
            bad += what == "worse"
            delta = (pb["median"] - pa["median"]) / pa["median"]
            cells.append(f"{what:>11s} {delta:+7.1%} ±{pb['spread']:6.1%}")
        print(f"{name:22s} " + " ".join(cells))
        for difference in simulated_differences(a, b, exact):
            print(f"{name:22s} {difference}")
            bad += 1
        failures = a["failures"] + b["failures"]
        if failures:
            print(f"{name:22s} {len(failures)} failed output check(s)")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
