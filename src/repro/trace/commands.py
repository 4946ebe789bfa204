"""``repro trace``: record, replay, or inspect stored traces (registered by
:mod:`repro.cli`)."""

from __future__ import annotations

import argparse
import sys
from typing import Any, List

from ..errors import TraceError
from .recorder import record_program, replay_recorded
from .replay import replay_program
from .store import list_traces, load_program, store_program, trace_dir


def register(subparsers: Any, common: Any) -> None:
    sub = subparsers.add_parser(
        "trace", help="record, replay, or inspect trace-driven simulation traces")
    trace_sub = sub.add_subparsers(dest="trace_command", required=True)

    sub = trace_sub.add_parser(
        "record", help="run a workload's functional pass and store its trace")
    common.cell(sub, scheme_help="scheme of the replay printed with the "
                "recording (the functional pass involves no scheduler; "
                "default rr)")
    sub.add_argument("--no-check", action="store_true",
                     help="skip functional verification")
    sub.set_defaults(handler=cmd_record)

    sub = trace_sub.add_parser(
        "replay", help="replay a stored trace through the timing model")
    common.cell(sub)
    sub.set_defaults(handler=cmd_replay)

    sub = trace_sub.add_parser("info", help="list stored traces and their headers")
    sub.set_defaults(handler=cmd_info)


def _replay(args: argparse.Namespace, program: Any) -> Any:
    """``program`` replayed under ``--scheme``: one result per launch, with
    the CAWS oracle from the guard every simulated cell goes through."""
    from ..core.cawa import apply_scheme
    from ..experiments.runner import scheme_oracle

    cfg = apply_scheme(args.config, args.scheme)
    oracle = scheme_oracle(args.workload, args.scale, args.config, cfg)
    return replay_program(program, cfg, scheme=args.scheme, oracle=oracle)


def cmd_record(args: argparse.Namespace) -> int:
    """Record and store the trace, then replay it once under ``--scheme``."""
    try:
        program = record_program(args.workload, args.scale, args.config,
                                 args.scheme, check=not args.no_check)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = store_program(program, args.workload, args.scale, args.config)
    result = replay_recorded(program, lambda: _replay(args, program)[-1])
    print(result.summary())
    print(
        f"recorded trace {program.trace_id}: "
        f"{len(program.launches)} launch(es), "
        f"{program.record_count} records in {result.record_steps} steps -> "
        f"{path or 'memory only (disk cache disabled or unwritable)'}"
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        program = load_program(args.workload, args.scale, args.config,
                               strict=True)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    assert program is not None  # strict: a miss raises
    results = _replay(args, program)
    for result in results:
        print(result.summary())
    print(f"replayed trace {program.trace_id} ({len(results)} launch(es))")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """Every stored trace with its header metadata."""
    from ..stats.report import format_table

    entries = list_traces()
    if not entries:
        print(f"no traces under {trace_dir()}")
        return 0
    rows: List[List[str]] = []
    for path, info in entries:
        if isinstance(info, Exception):
            rows.append([path.name, "<unreadable>", "-", "-", "-", "-", "-",
                         "-", str(info)])
            continue
        # A trace from before the functional recorder has no step count.
        steps = info.meta.get("steps")
        rows.append([
            path.name,
            info.workload,
            f"{info.scale:g}",
            info.trace_id,
            str(info.record_count),
            str(steps) if steps else "?",
            f"{info.record_count / steps:.1f}" if steps else "?",
            info.meta.get("recorded_scheme", "?"),
            "yes" if info.meta.get("verified") else "no",
        ])
    print(format_table(
        ["file", "workload", "scale", "trace_id", "records", "steps",
         "warps/step", "scheme", "verified"], rows
    ))
    return 0
