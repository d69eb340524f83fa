#!/usr/bin/env python3
"""Run the whole benchmark the way the driver does and keep the result.

    python3 bench/suite.py --seed N --out RESULT.json

For every workload of ``BENCHMARK.json``: ten invocations of
``bench/run.py --trace 0`` for ``run_seconds`` each, one after the other,
each a fresh process with its own seed (``--seed``, ``--seed``+1, ...),
then one ``--trace 1`` invocation on ``--seed``.  The result file holds,
per workload and end-to-end metric, every run's raw value, the median,
the quartiles and the spread (inter-quartile distance as a share of the
median — the number the driver holds against the metric's bound), next
to the per-layer metrics, the sim digests, the machine fingerprint and
the load average before and after.  ``bench/compare.py`` compares two
such files recorded on the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS = 10


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def summarize(values: List[float]) -> Dict[str, Any]:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_once(workload: str, seed: int, seconds: float, scale: float,
             trace: int) -> Dict[str, Any]:
    """One ``bench/run.py`` process; returns what its ``--out`` holds."""
    with tempfile.TemporaryDirectory() as directory:
        out = os.path.join(directory, "run.json")
        command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--scale", str(scale),
                   "--trace", str(trace), "--out", out]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        if done.returncode != 0:
            raise SystemExit(f"{' '.join(command)} exited with "
                             f"{done.returncode}:\n{done.stderr}")
        with open(out) as handle:
            return json.load(handle)


def collect(seed: int, runs: int = RUNS, seconds: Optional[float] = None,
            scale: float = 1.0,
            workloads: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """The result of one full set of runs.  The command line always runs
    every workload at full size; ``bench/tests`` shrinks the set.
    Whatever was used is recorded, and ``compare.py`` refuses two results
    recorded differently."""
    benchmark = load_benchmark()
    if seconds is None:
        seconds = float(benchmark["run_seconds"])
    if workloads is None:
        workloads = [w["name"] for w in benchmark["workloads"]]
    end_to_end = [m["name"] for m in benchmark["end_to_end"]]
    load_before = list(os.getloadavg())
    result: Dict[str, Any] = {
        "commit": git_commit(), "seed": seed, "runs": runs,
        "seconds": seconds, "scale": scale,
        "loadavg_before": load_before,
        "noisy": load_before[0] > (os.cpu_count() or 1),
        "workloads": {},
    }
    for name in workloads:
        details = []
        for index in range(runs):
            detail = run_once(name, seed + index, seconds, scale, 0)
            details.append(detail)
            print(f"{name} seed {detail['seed']}: " + "  ".join(
                f"{metric}={detail['metrics'][metric]:.4g}"
                for metric in end_to_end), flush=True)
        traced = run_once(name, seed, seconds, scale, 1)
        result.setdefault("fingerprint", details[0]["fingerprint"])
        result["workloads"][name] = {
            "end_to_end": {
                metric: summarize([d["metrics"][metric] for d in details])
                for metric in end_to_end},
            "raw": [d["raw"] for d in details],
            "digests": {str(d["seed"]): d["digest"] for d in details},
            "traced_digest": traced["digest"],
            "attempted": sum(d["line"]["attempted"]
                             for d in details + [traced]),
            "failures": [failure for d in details + [traced]
                         for failure in d["failures"]],
            "noisy_runs": sum(1 for d in details if d["noisy"]),
            "per_layer": traced["metrics"],
        }
        for metric in end_to_end:
            summary = result["workloads"][name]["end_to_end"][metric]
            print(f"{name:22s} {metric:12s} median {summary['median']:.5g}"
                  f"  spread {summary['spread']:.2%}", flush=True)
    result["loadavg_after"] = list(os.getloadavg())
    return result


def main(argv: Optional[List[str]] = None, **size: Any) -> int:
    """``size`` (``collect``'s keyword arguments) is for ``bench/tests``."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = collect(args.seed, **size)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    failed = sum(len(w["failures"]) for w in result["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
