"""``python -m repro shard`` — sharded region simulation driver.

Examples::

    python -m repro shard --regions 4 --workers 2
    python -m repro shard --scenario random --regions 8 \
        --switches 200 --hosts 400 --flows 2000
    python -m repro shard --regions 1 --compare  # byte-identity anchor
    python -m repro shard --regions 2 --checkpoint DIR   # then --resume
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .. import telemetry
from ..checkpoint import CheckpointError
from .coordinator import run_sharded
from .scenario import figure3_scenario, random_scenario, run_single


def shard_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro shard",
        description="Sharded region simulation with boundary-pin "
                    "sync")
    parser.add_argument("--regions", type=int, default=2,
                        help="number of partition regions (default 2)")
    parser.add_argument("--workers", type=int, default=1,
                        help="resident worker processes, each keeping "
                             "its regions live across windows; 1 runs "
                             "them inline (default 1)")
    parser.add_argument("--scenario", choices=["figure3", "random"],
                        default="figure3",
                        help="workload to shard (default figure3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration", type=float, default=None,
                        help="override the scenario horizon in seconds")
    parser.add_argument("--window", type=float, default=None,
                        help="lockstep window length in seconds: "
                             "boundary pins are re-agreed at every "
                             "window end (default: sample period)")
    parser.add_argument("--switches", type=int, default=None,
                        help="random scenario: switch count")
    parser.add_argument("--hosts", type=int, default=None,
                        help="random scenario: host count")
    parser.add_argument("--flows", type=int, default=None,
                        help="random scenario: flow count")
    parser.add_argument("--compare", action="store_true",
                        help="also run the single-process engine and "
                             "report whether the stable records match "
                             "(they must with --regions 1, where a "
                             "divergence exits 1; more regions "
                             "approximate)")
    parser.add_argument("--checkpoint", metavar="DIR", default=None,
                        help="write the shard checkpoint file into DIR "
                             "at checkpoint barriers")
    parser.add_argument("--checkpoint-every", type=int, default=1,
                        metavar="N",
                        help="checkpoint every N window barriers (the "
                             "horizon barrier always checkpoints; "
                             "default 1). State only serializes when a "
                             "checkpoint is due, so larger N means less "
                             "transport overhead and a coarser resume "
                             "granularity")
    parser.add_argument("--resume", action="store_true",
                        help="continue from the checkpoint in "
                             "--checkpoint instead of starting at t=0")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the result record as JSON to FILE")
    args = parser.parse_args(argv)

    if args.resume and args.checkpoint is None:
        parser.error("--resume needs --checkpoint DIR")

    sizes = {flag: getattr(args, flag) for flag in
             ("switches", "hosts", "flows") if getattr(args, flag) is not None}
    if sizes and args.scenario != "random":
        # Accepting them would report a figure3 run they never touched.
        flags = ", ".join(f"--{flag}" for flag in sizes)
        parser.error(f"{flags}: only apply to --scenario random")
    kwargs = {} if args.duration is None else {"duration_s": args.duration}
    try:
        if args.scenario == "figure3":
            scenario = figure3_scenario(seed=args.seed, **kwargs)
        else:
            scenario = random_scenario(
                seed=args.seed, **kwargs,
                **{f"n_{flag}": value for flag, value in sizes.items()})
    except ValueError as exc:  # a scenario parameter out of range
        parser.error(str(exc))

    telemetry.reset()
    try:
        record = run_sharded(scenario, n_regions=args.regions,
                             workers=args.workers, window_s=args.window,
                             checkpoint_dir=args.checkpoint,
                             resume=args.resume,
                             checkpoint_every=args.checkpoint_every)
    except (ValueError, CheckpointError) as exc:
        # A flag run_sharded rejects, or a --resume checkpoint that is
        # corrupt or from another configuration.
        parser.error(str(exc))
    print(f"[shard] {record['mode']}: {args.scenario} seed={args.seed} "
          f"regions={record['n_regions']} workers={record['workers']} "
          f"cut_edges={record['cut_edges']} "
          f"passes={record['allocation_passes']}")
    transport = record["transport"]
    state = transport["state_bytes"]
    cpu = transport["cpu_time_s"]
    worker_cpu = math.fsum(cpu["workers"])
    print(f"[shard] transport: {transport['windows']} windows, "
          f"barriers {transport['barrier_seconds_total']:.3f}s, "
          f"state bytes out/in "
          f"{state['to_workers']}/{state['from_workers']}, "
          f"checkpoints {transport['checkpoints_written']}, "
          f"cpu coordinator {cpu['coordinator']:.3f}s "
          f"workers {worker_cpu:.3f}s")

    status = 0
    if args.compare:
        telemetry.reset()
        single = run_single(scenario)
        keys = ("samples", "flows", "updates", "allocation_passes")
        matches = all(
            json.dumps(record[key], sort_keys=True)
            == json.dumps(single[key], sort_keys=True) for key in keys)
        if matches:
            verdict = "byte-identical"
        elif args.regions == 1:
            verdict = "DIVERGED"
            status = 1
        else:
            verdict = "differs (expected: cut links are unallocated)"
        print(f"[shard] single-engine comparison: {verdict}")

    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[shard] wrote result record to {args.out}",
              file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(shard_main())
