"""``repro lint``: statically analyze workload kernels (registered by
:mod:`repro.cli`)."""

from __future__ import annotations

import argparse
import json
from typing import Any


def register(subparsers: Any, common: Any) -> None:
    sub = subparsers.add_parser(
        "lint",
        help="statically analyze workload kernels (CFG, dataflow, CPL "
        "path-length bounds); see docs/static_analysis.md",
    )
    target = sub.add_mutually_exclusive_group(required=True)
    common.workload(target, required=False)
    target.add_argument("--all", action="store_true",
                        help="lint every registered workload kernel")
    sub.add_argument("--format", choices=["text", "json"], default="text")
    common.scale(sub)
    common.fermi(sub)
    sub.set_defaults(handler=cmd_lint)


def cmd_lint(args: argparse.Namespace) -> int:
    from ..gpu import GPU
    from ..workloads import make_workload, workload_names
    from .lints import lint_kernel

    config = args.config
    names = workload_names(include_synthetic=True) if args.all else [args.workload]
    reports = []
    for name in names:
        # Building the workload (not simulating it) materializes its kernel.
        spec = make_workload(name, scale=args.scale).build(GPU(config))
        reports.append(lint_kernel(spec.kernel, warp_size=config.warp_size,
                                   line_size=config.l1d.line_size))
    ok = all(r.ok for r in reports)
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.format_text())
        failed = [r.kernel for r in reports if not r.ok]
        print(
            f"\nlinted {len(reports)} kernel(s): "
            + ("all clean" if ok else f"FAILED: {', '.join(failed)}")
        )
    return 0 if ok else 1
