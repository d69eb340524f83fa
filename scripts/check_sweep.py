#!/usr/bin/env python3
"""Gate CI on sweep-runner invariants.

Reads a ``sweep_summary.json`` written by ``python -m repro sweep`` and
checks the properties the runner guarantees:

* task accounting (``--expect-tasks`` / ``--expect-executed`` /
  ``--expect-skipped``) — the resume smoke test runs a sweep twice and
  requires the second pass to have executed nothing;
* no failed tasks;
* cross-run determinism (``--matches OTHER_SUMMARY``) — aggregates and
  the deterministic subset of the merged metrics snapshot must be
  identical, whatever worker counts produced the two summaries.

Usage::

    python scripts/check_sweep.py sweep_ci/sweep_summary.json \\
        --expect-tasks 4 --expect-skipped 4
    python scripts/check_sweep.py parallel/sweep_summary.json \\
        --matches serial/sweep_summary.json
"""

import argparse
import json
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# Fallback wall-clock family list for summaries written before the
# runner started embedding ``wall_clock_metrics``; current summaries
# carry the authoritative list themselves.  Imported, not copied, so
# the fallback cannot drift either (RPL007, tests/lint/test_rules.py).
from repro.telemetry import WALL_CLOCK_METRICS  # noqa: E402


def load(path):
    return json.loads(Path(path).read_text())


def stable(snapshot, excluded):
    return {name: family for name, family in snapshot.items()
            if name not in excluded}


def check(args):
    summary = load(args.summary)
    n_tasks = summary.get("n_tasks")
    executed = summary.get("executed")
    skipped = summary.get("skipped")

    if summary.get("errors"):
        return f"{len(summary['errors'])} task(s) failed: " \
               f"{summary['errors']}"
    for flag, expected, actual in (
            ("--expect-tasks", args.expect_tasks, n_tasks),
            ("--expect-executed", args.expect_executed, executed),
            ("--expect-skipped", args.expect_skipped, skipped)):
        if expected is not None and actual != expected:
            return f"{flag}: wanted {expected}, summary has {actual}"
    if not summary.get("aggregates"):
        return "summary has no aggregates"

    if args.matches is not None:
        other = load(args.matches)
        if summary["aggregates"] != other["aggregates"]:
            return (f"aggregates differ between {args.summary} and "
                    f"{args.matches}")
        excluded = set(summary.get("wall_clock_metrics",
                                   WALL_CLOCK_METRICS))
        excluded.update(other.get("wall_clock_metrics", ()))
        if stable(summary["merged_metrics"], excluded) != \
                stable(other["merged_metrics"], excluded):
            return (f"merged metrics differ between {args.summary} and "
                    f"{args.matches} (excluding wall-clock families)")
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("summary", help="path to a sweep_summary.json")
    parser.add_argument("--expect-tasks", type=int, default=None)
    parser.add_argument("--expect-executed", type=int, default=None)
    parser.add_argument("--expect-skipped", type=int, default=None)
    parser.add_argument(
        "--matches", metavar="OTHER", default=None,
        help="second sweep_summary.json that must agree on aggregates "
             "and deterministic merged metrics")
    args = parser.parse_args(argv)

    error = check(args)
    if error:
        print(f"check_sweep: FAIL: {error}", file=sys.stderr)
        return 1
    summary = load(args.summary)
    print(f"check_sweep: OK: {summary['n_tasks']} task(s), "
          f"{summary['executed']} executed, {summary['skipped']} "
          f"resumed, {len(summary['aggregates'])} group(s) in "
          f"{summary['wall_seconds']:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
