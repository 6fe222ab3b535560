"""CLI: ``python -m repro_lint src/ [more paths]`` — exit 0 when clean."""
from __future__ import annotations

import argparse
import sys

from . import ALL_RULES, lint_paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro_lint",
        description="Determinism, frozen-table and hygiene linter for "
                    "the repro library.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule ids and exit")
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            print(rule)
        return 0
    violations = lint_paths(args.paths or ["src"])
    for v in violations:
        print(v)
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
