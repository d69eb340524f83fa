"""Command-line entry point: ``python -m repro <experiment>``.

Subcommands regenerate the paper's figures:

* ``figure1`` — the merge/place/scale pipeline report.
* ``figure2`` — the multimode sequence and mixed-vector regions.
* ``figure3`` — the FastFlex vs. SDN baseline throughput series.
* ``all``     — everything, in order.
* ``sweep``   — deterministic multi-seed sweeps over any experiment
  driver (``python -m repro sweep figure3 --seeds 0:20 --workers 8
  --out DIR [--resume]``); see :mod:`repro.sweep.cli` for its flags.

Telemetry flags (any experiment):

* ``--trace FILE``   — enable structured event tracing and write the
  run's timeline (mode transitions, detections, allocation passes,
  repurposing, state transfers) as JSON Lines.
* ``--metrics FILE`` — write a JSON snapshot of the metrics registry
  (counters, gauges, histograms) after the run.  For ``figure3`` /
  ``all`` the snapshot additionally carries a ``per_system`` section
  with the baseline's and FastFlex's registries snapshotted separately,
  so per-system numbers stay recoverable from the summed totals.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import telemetry


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        from .sweep.cli import sweep_main
        return sweep_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FastFlex (HotNets '19) reproduction experiments",
        epilog="For multi-seed parameter sweeps use: "
               "python -m repro sweep <driver> [options]")
    parser.add_argument(
        "experiment", choices=["figure1", "figure2", "figure3", "all"],
        help="which figure to regenerate (or 'sweep', which takes its "
             "own options)")
    parser.add_argument(
        "--duration", type=float, default=None,
        help="override the figure3 horizon in seconds (default 120)")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the figure3 random seed")
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record structured events and write them as JSONL to FILE")
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write a JSON metrics-registry snapshot to FILE")
    args = parser.parse_args(argv)

    # --duration/--seed only parameterize figure3; silently accepting
    # them for figure1/figure2 would report results the flags never
    # influenced.
    if args.experiment in ("figure1", "figure2"):
        ignored = [flag for flag, value in
                   (("--duration", args.duration), ("--seed", args.seed))
                   if value is not None]
        if ignored:
            flags = " and ".join(ignored)
            them = "them" if len(ignored) > 1 else "it"
            parser.error(
                f"{flags}: these overrides only apply to figure3 (or "
                f"the figure3 stage of 'all'); {args.experiment} does "
                f"not take {them}")
    config = None
    if args.experiment in ("figure3", "all"):
        from .experiments.figure3 import Figure3Config
        overrides = {}
        if args.duration is not None:
            overrides["duration_s"] = args.duration
        if args.seed is not None:
            overrides["seed"] = args.seed
        try:
            config = Figure3Config(**overrides)
        except ValueError as exc:
            parser.error(f"--duration: {exc}")

    # One run = one snapshot: zero whatever earlier in-process runs
    # accumulated, then opt into tracing if asked.
    telemetry.reset()
    trace = telemetry.trace()
    was_enabled = trace.enabled
    if args.trace is not None:
        trace.enable()
    per_system_metrics = None
    try:
        if args.experiment in ("figure1", "all"):
            from .experiments.figure1 import format_report
            print(format_report())
            print()
        if args.experiment in ("figure2", "all"):
            from .experiments import figure2
            figure2.main()
            print()
        if config is not None:
            from .experiments.figure3 import format_report, run_both
            results = run_both(config)
            per_system_metrics = {name: result.metrics
                                  for name, result in results.items()}
            print(format_report(results, config))
    finally:
        if args.trace is not None:
            written = trace.write_jsonl(args.trace)
            print(f"[telemetry] wrote {written} trace events "
                  f"to {args.trace}", file=sys.stderr)
            trace.enabled = was_enabled
        if args.metrics is not None:
            snapshot = telemetry.metrics().snapshot()
            if per_system_metrics is not None:
                snapshot["per_system"] = per_system_metrics
            with open(args.metrics, "w") as fh:
                json.dump(snapshot, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"[telemetry] wrote metrics snapshot to {args.metrics}",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
