"""``repro events``: summarize, export, or describe observability event
streams (registered by :mod:`repro.cli`).  Each command records its cell
afresh: nothing is stored."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict

from .events import SCHEMA_VERSION, event_to_dict, schema_table, validate_schema
from .export import KindCounter, chrome_trace, events_csv, write_chrome_trace
from .harness import record_events
from .stalls import StallAccounting


def register(subparsers: Any, common: Any) -> None:
    sub = subparsers.add_parser(
        "events",
        help="summarize and export a cell's observability event stream, "
        "recorded afresh (see docs/observability.md)",
    )
    events_sub = sub.add_subparsers(dest="events_command", required=True)

    sub = events_sub.add_parser(
        "stats", help="per-reason stall breakdown (Fig 2c-style) for one cell")
    common.cell(sub, positional=True)
    sub.add_argument("--format", choices=["text", "json"], default="text")
    sub.set_defaults(handler=cmd_stats)

    sub = events_sub.add_parser(
        "export", help="export a recorded stream (chrome = Perfetto-loadable JSON)")
    common.cell(sub, positional=True)
    sub.add_argument("--format", choices=["chrome", "csv", "json"],
                     default="chrome")
    sub.add_argument("-o", "--output", default=None,
                     help="output path (default: <wl>-<scheme>.trace.json "
                     "for chrome, stdout otherwise)")
    sub.set_defaults(handler=cmd_export)

    sub = events_sub.add_parser(
        "schema", help="print the event schema (field names per kind)")
    sub.add_argument("--check", action="store_true",
                     help="validate schema consistency and exit")
    sub.set_defaults(handler=cmd_schema)


def cmd_stats(args: argparse.Namespace) -> int:
    # The totals come from collectors that see every event: the bus's
    # ring keeps only the most recent, so it holds just one here.
    acct, kinds = StallAccounting(), KindCounter()
    result, bus = record_events(args.workload, args.scheme, scale=args.scale,
                                config=args.config, collectors=(acct, kinds),
                                events="ring:1")
    if args.format == "json":
        from ..core.cawa import apply_scheme

        cfg = apply_scheme(args.config, args.scheme)
        payload: Dict[str, Any] = acct.to_dict()
        payload["kind_counts"] = kinds.named()
        payload["meta"] = {
            "workload": args.workload, "scheme": args.scheme,
            "scale": args.scale, "cycles": result.cycles,
            "frontend": result.frontend, "sampling": cfg.sampling,
            "fingerprint": cfg.fingerprint(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(result.summary())
    print(f"recorded {bus.emitted} events")
    for name, count in kinds.named().items():
        print(f"  {name:<16} {count}")
    print(acct.format_table())
    key, breakdown = acct.critical_warp()
    cells = "  ".join(f"{n}={c:.0f}" for n, c in sorted(
        breakdown.items(), key=lambda kv: (-kv[1], kv[0])))
    print(f"critical warp sm{key[0]} b{key[1]}/w{key[2]}: {cells}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    _result, bus = record_events(args.workload, args.scheme, scale=args.scale,
                                 config=args.config)
    events = bus.events()
    if bus.ring.dropped:
        print(f"the ring kept the last {len(events)} of {bus.emitted} events",
              file=sys.stderr)
    out = args.output
    if args.format == "chrome":
        out = out or f"{args.workload}-{args.scheme}.trace.json"
        path = write_chrome_trace(events, out)
        doc = chrome_trace(events)
        print(f"wrote {len(doc['traceEvents'])} trace events -> {path}")
        print("open in https://ui.perfetto.dev ('Open trace file')")
        return 0
    if args.format == "csv":
        text = events_csv(events)
    else:  # json: raw event tuples + field names
        text = "\n".join(
            json.dumps(event_to_dict(ev), sort_keys=True) for ev in events
        ) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(events)} events -> {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_schema(args: argparse.Namespace) -> int:
    if args.check:
        validate_schema()
        print("events schema OK")
        return 0
    print(f"event schema v{SCHEMA_VERSION} (common fields: kind, cycle, sm)")
    for name, code, fields in schema_table():
        print(f"  {code:>3}  {name:<16} {', '.join(fields)}")
    return 0
