"""Microbenchmark — sharded region simulation scaling (PR trajectory bench).

Runs one 1000-switch / 20000-flow random scenario under
:func:`repro.shard.coordinator.run_sharded` (per-region allocators
with boundary-pin consensus) at ``regions = workers = K`` for
K in 1, 2, 4, 8, plus the true single-process engine
(:func:`repro.shard.scenario.run_single`) for reference.  Results go to
``BENCH_shard.json`` at the repo root.

The headline number is **scaling** = t(K=1) / t(K=8).  On a one-core
container (CI) the win is algorithmic, not parallel: global max-min
allocation is superlinear in flows x links, so splitting one 1000-switch
allocation problem into eight ~125-switch regional problems shrinks the
per-epoch allocator work far more than the coordinator's barrier costs
add back.  ``cpu_count`` is recorded so multi-core readings are never
mistaken for single-core ones.  **speedup** = single-engine time /
t(K=8) is reported alongside, honestly including every sharding
overhead the single engine does not pay.

**workers1_overhead** = t(K=1) / single-engine time isolates the
resident transport's own cost: with one region and one inline worker
the sharded run does the same simulation work as the single engine,
so anything above 1.0x is pure coordinator overhead.  The pre-resident
blob-per-window transport sat at ~1.38x; the resident transport
serializes no state on this path and must stay within 1.10x (CI gate
ceiling 1.25x via ``scripts/check_bench.py --max-shard-overhead``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_microbench_shard.py -s``.
"""

import json
import os
import time
from pathlib import Path as FsPath

from repro.shard import random_scenario, run_sharded, run_single

N_SWITCHES = 1000
N_HOSTS = 2000
N_FLOWS = 20000
#: Flow sources concentrate on this many hosts so path assignment reuses
#: Dijkstra trees; large enough that every region homes allocator work.
SOURCE_HOSTS = 256
#: One fluid epoch every 40 ms over a 1 s horizon = 26 allocator epochs.
FLUID_INTERVAL_S = 0.04
DURATION_S = 1.0
#: Demand churn per epoch keeps every epoch an allocation pass (the
#: steady-state fast path would otherwise make t(K) measure smoothing).
CHURN_PER_EPOCH = 300
WORKER_COUNTS = (1, 2, 4, 8)
BENCH_PATH = FsPath(__file__).resolve().parent.parent / "BENCH_shard.json"


def build_scenario():
    return random_scenario(seed=42, n_switches=N_SWITCHES, n_hosts=N_HOSTS,
                           n_flows=N_FLOWS, extra_edges=300,
                           duration_s=DURATION_S,
                           fluid_interval_s=FLUID_INTERVAL_S,
                           sample_period_s=0.5,
                           churn_per_epoch=CHURN_PER_EPOCH,
                           locality=1, source_hosts=SOURCE_HOSTS)


def transport_summary(record):
    """The per-run transport accounting run_sharded emits: window count,
    barrier wall time, state bytes moved (zero without checkpoints) and
    the coordinator/worker CPU split."""
    transport = record["transport"]
    return {
        "windows": transport["windows"],
        "barrier_seconds_total": round(
            transport["barrier_seconds_total"], 3),
        "state_bytes": transport["state_bytes"],
        "messages": transport["messages"],
        "cpu_time_s": {
            "coordinator": round(
                transport["cpu_time_s"]["coordinator"], 3),
            "workers": [round(cpu, 3)
                        for cpu in transport["cpu_time_s"]["workers"]],
        },
    }


def test_shard_scaling():
    scenario = build_scenario()

    start = time.perf_counter()
    single = run_single(scenario)
    single_s = time.perf_counter() - start
    single_passes = single["allocation_passes"]
    del single

    # No process-level telemetry deltas here: run_sharded isolates the
    # registry per region (capture/restore), so its counters never land
    # in this process — per-K allocation passes come from the records.
    # Only scalar summaries are retained between runs: holding the full
    # 20000-flow records would bloat the heap every subsequent K's
    # forked workers inherit, taxing their GC and COW pages.
    times = {}
    summaries = {}
    for k in WORKER_COUNTS:
        start = time.perf_counter()
        record = run_sharded(scenario, n_regions=k, workers=k,
                             window_s=DURATION_S)
        times[k] = time.perf_counter() - start
        summaries[k] = {"allocation_passes": record["allocation_passes"],
                        "cut_edges": record["cut_edges"],
                        "transport": transport_summary(record)}
        del record

    scaling = times[1] / times[8]
    speedup = single_s / times[8]
    workers1_overhead = times[1] / single_s

    record = {
        "scenario": {"switches": N_SWITCHES, "hosts": N_HOSTS,
                     "flows": N_FLOWS, "source_hosts": SOURCE_HOSTS,
                     "duration_s": DURATION_S,
                     "fluid_interval_s": FLUID_INTERVAL_S,
                     "churn_per_epoch": CHURN_PER_EPOCH, "sync": "local"},
        "cpu_count": os.cpu_count(),
        "single_engine_s": round(single_s, 3),
        "workers": {str(k): {"seconds": round(times[k], 3),
                             **summaries[k]}
                    for k in WORKER_COUNTS},
        "scaling": round(scaling, 2),
        "speedup": round(speedup, 2),
        "workers1_overhead": round(workers1_overhead, 2),
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    curve = ", ".join(f"K={k} {times[k]:.1f}s" for k in WORKER_COUNTS)
    print(f"\nBENCH_shard: single {single_s:.1f}s; {curve}; "
          f"scaling {scaling:.2f}x, speedup vs single {speedup:.2f}x, "
          f"workers=1 overhead {workers1_overhead:.2f}x "
          f"on {os.cpu_count()} cpu(s) -> {BENCH_PATH.name}")

    assert single_passes > 0
    assert scaling >= 3.0, (
        f"sharded scaling regressed: t(1)/t(8) = {scaling:.2f}x < 3.0x "
        f"on {N_SWITCHES} switches / {N_FLOWS} flows")
    assert workers1_overhead <= 1.25, (
        f"workers=1 sharded overhead regressed: {workers1_overhead:.2f}x "
        f"> 1.25x - the resident transport is serializing state on the "
        f"window path again")
