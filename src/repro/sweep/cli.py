"""``python -m repro sweep`` — the sweep runner's command line.

Examples::

    python -m repro sweep figure3 --seeds 0:20 --workers 8 --out runs/f3
    python -m repro sweep figure3 --seeds 0:20 --out runs/f3 --resume
    python -m repro sweep figure3 --seeds 0:8 --set duration_s=40 \\
        --grid connections_per_bot=50,200,400 --out runs/strength
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Any, Dict, List

from .. import telemetry
from .drivers import (_figure3_config, driver_names, figure3_baseline,
                      figure3_driver, figure3_fastflex, resolve_driver)
from .runner import run_sweep
from .spec import SweepSpec, parse_seeds


def _parse_value(text: str) -> Any:
    """``200`` -> int, ``1.5`` -> float, ``True`` -> bool, else str."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_assignments(pairs: List[str], parser, flag: str,
                       parse: bool = True) -> Dict[str, Any]:
    """``KEY=VALUE`` pairs -> dict; ``parse=False`` keeps raw strings
    so multi-value flags can split on ',' *before* literal_eval (which
    would otherwise read ``50,200,400`` as one tuple)."""
    out: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            parser.error(f"{flag} wants KEY=VALUE, got {pair!r}")
        out[key] = _parse_value(value) if parse else value
    return out


def _format_aggregates(aggregates: Dict[str, Any]) -> str:
    lines = []
    for group, data in aggregates.items():
        lines.append(f"{group}  (n={len(data['seeds'])} seeds)")
        for name, stats in data["scalars"].items():
            lines.append(
                f"  {name:<36} mean {stats['mean']:>10.4g}  "
                f"min {stats['min']:>10.4g}  max {stats['max']:>10.4g}  "
                f"±{stats['ci95']:.3g} (95% CI)")
    return "\n".join(lines)


def sweep_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Deterministic multi-seed experiment sweeps "
                    "(checkpointed, resumable, process-parallel)")
    parser.add_argument(
        "experiment",
        help=f"driver to sweep: one of {driver_names()} or a "
             f"'module:callable' spec")
    parser.add_argument(
        "--seeds", default="0:5", metavar="SPEC",
        help="logical seeds: START:STOP[:STEP] or N,M,... (default 0:5)")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = run inline; results are identical)")
    parser.add_argument(
        "--out", metavar="DIR", default=None,
        help="checkpoint/summary directory (default sweeps/<experiment>)")
    parser.add_argument(
        "--resume", action="store_true",
        help="skip tasks whose checkpoints in --out are already complete")
    parser.add_argument(
        "--set", dest="base", action="append", default=[],
        metavar="KEY=VALUE", help="fixed driver parameter (repeatable)")
    parser.add_argument(
        "--grid", action="append", default=[], metavar="KEY=V1,V2,...",
        help="grid axis; the cross product of axes is swept (repeatable)")
    parser.add_argument(
        "--raw-seeds", action="store_true",
        help="pass logical seeds straight to the driver instead of "
             "deriving decorrelated per-task seeds")
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write the merged (cross-worker) metrics snapshot to FILE")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines")
    args = parser.parse_args(argv)

    base = _parse_assignments(args.base, parser, "--set")
    grid = {}
    for key, raw in _parse_assignments(args.grid, parser, "--grid",
                                       parse=False).items():
        pieces = raw.split(",")
        if not all(pieces):
            parser.error(f"--grid {key}: empty value in {raw!r}")
        grid[key] = [_parse_value(v) for v in pieces]
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    # Resolve the driver before --out is created: an unknown name or an
    # unimportable spec is a usage error, not a sweep of failed tasks.
    try:
        driver = resolve_driver(args.experiment)
    except KeyError as exc:
        parser.error(exc.args[0])
    except ImportError as exc:
        parser.error(f"driver spec {args.experiment!r}: {exc}")

    # Duplicate seeds, colliding task ids and a parameter a built-in
    # figure3 driver would refuse are usage errors too.
    try:
        spec = SweepSpec(experiment=args.experiment, seeds=seeds,
                         base_params=base, grid=grid,
                         raw_seeds=args.raw_seeds)
        tasks = spec.tasks()
        if driver in (figure3_driver, figure3_baseline, figure3_fastflex):
            for task in tasks:
                _figure3_config(task.seed, task.param_dict)
    except ValueError as exc:
        parser.error(str(exc))
    out_dir = args.out if args.out is not None else \
        f"sweeps/{args.experiment.replace(':', '-')}"
    progress = None if args.quiet else \
        (lambda message: print(message, file=sys.stderr))

    result = run_sweep(spec, out_dir=out_dir, workers=args.workers,
                       resume=args.resume, progress=progress)

    print(f"sweep {args.experiment}: {len(result.records)} task(s) "
          f"({result.executed} executed, {result.skipped} resumed) "
          f"in {result.wall_seconds:.1f}s -> {result.out_dir}")
    print(_format_aggregates(result.aggregates))
    if args.metrics is not None:
        # The sweep-level snapshot: every worker's registry, merged.
        registry = telemetry.metrics()
        registry.reset()
        registry.merge(result.merged_metrics)
        registry.write_json(args.metrics)
        print(f"[telemetry] wrote merged metrics snapshot to "
              f"{args.metrics}", file=sys.stderr)
    for error in result.errors:
        print(f"FAILED {error['task_id']}: {error['error']}",
              file=sys.stderr)
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(sweep_main())
