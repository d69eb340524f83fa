"""The ``python -m repro.lint`` command line.

Exit codes: 0 clean (after inline suppressions), 1 findings or parse
errors, 2 usage/configuration error.  ``--json`` emits one sorted,
round-trippable JSON object on stdout; CI redirects it to a file as
both gate and artifact.

Every run is whole-program: the per-file rules and the cross-module
rules (RPL007, RPL010) both see exactly the files named on the command
line, so the paths you lint decide what each contract covers.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .core import all_rules, lint_paths

DEFAULT_PATHS = ["src", "scripts"]


def _parse_codes(text: Optional[str]) -> Optional[List[str]]:
    if text is None:
        return None
    return [code.strip() for code in text.split(",") if code.strip()]


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
    parser.add_argument("--select", metavar="CODES", default=None,
                        help="comma-separated rule codes to run "
                             "exclusively (e.g. RPL001,RPL005)")
    parser.add_argument("--ignore", metavar="CODES", default=None,
                        help="comma-separated rule codes to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}: {rule.description}")
        return 0

    paths = args.paths if args.paths else DEFAULT_PATHS
    try:
        result = lint_paths(paths, select=_parse_codes(args.select),
                            ignore=_parse_codes(args.ignore))
    except ValueError as exc:  # unknown rule codes
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
