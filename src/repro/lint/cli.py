"""The ``python -m repro.lint`` command line.

Exit codes: 0 clean (after inline suppressions), 1 findings or parse
errors, 2 usage error — including a path that does not exist or a run
that finds no ``.py`` file, so a typo in CI cannot pass the gate by
checking nothing.  ``--json`` emits one sorted, round-trippable JSON
object on stdout; CI redirects it to a file as both gate and artifact.

Every run is whole-program: every rule, the cross-module ones (RPL007,
RPL010) included, sees exactly the files named on the command line, so
the paths you lint decide what each contract covers.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .core import lint_paths

DEFAULT_PATHS = ["src", "scripts"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based checker for the repo's determinism, "
                    "telemetry, and mutation contracts")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint "
                             "(default: src scripts)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit findings as one JSON object")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    paths = args.paths if args.paths else DEFAULT_PATHS
    try:
        result = lint_paths(paths)
    except ValueError as exc:  # a missing path, or no .py file at all
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.as_json:
        payload = {
            "findings": [f.to_dict() for f in result.findings],
            "suppressed": result.suppressed,
            "files_checked": result.files_checked,
            "parse_errors": [{"path": p, "error": e}
                             for p, e in result.parse_errors],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in result.findings:
            print(finding)
        for path, error in result.parse_errors:
            print(f"{path}: parse error: {error}", file=sys.stderr)
        summary = (f"{len(result.findings)} finding(s) in "
                   f"{result.files_checked} file(s)")
        if result.suppressed:
            summary += f", {result.suppressed} suppressed inline"
        print(summary)

    return 1 if result.findings or result.parse_errors else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
