"""``repro sanitize``: statically check the simulator's own source
(registered by :mod:`repro.cli`)."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any


def register(subparsers: Any, common: Any) -> None:
    sub = subparsers.add_parser(
        "sanitize",
        help="statically check the simulator's own source (fingerprint "
        "soundness, determinism, probe coverage, protocol conformance); "
        "see docs/static_analysis.md",
    )
    sub.add_argument(
        "--rule", action="append", metavar="ID",
        help="restrict to this rule ID (repeatable; default: all rules)",
    )
    sub.add_argument(
        "--all", action="store_true",
        help="run every rule (the default; accepted for symmetry with "
        "'repro lint --all')",
    )
    sub.add_argument("--format", choices=["text", "json"], default="text")
    sub.add_argument(
        "--root", default=None,
        help="tree to analyze (default: the installed repro package)",
    )
    sub.set_defaults(handler=cmd_sanitize)


def cmd_sanitize(args: argparse.Namespace) -> int:
    from . import RULES, sanitize_tree

    unknown = [r for r in args.rule or () if r not in RULES]
    if unknown:
        print(
            f"unknown sanitize rule(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(RULES))})",
            file=sys.stderr,
        )
        return 2
    report = sanitize_tree(Path(args.root) if args.root else None,
                           rules=args.rule)
    print(report.to_json() if args.format == "json" else report.format_text())
    return 0 if report.ok else 1
