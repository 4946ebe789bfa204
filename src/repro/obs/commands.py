"""``repro events``: record, summarize, export, or describe observability
event streams (registered by :mod:`repro.cli`)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

from . import store
from .events import SCHEMA_VERSION, event_to_dict, schema_table, validate_schema
from .export import chrome_trace, events_csv, kind_counts, write_chrome_trace
from .stalls import StallAccounting


def register(subparsers: Any, common: Any) -> None:
    sub = subparsers.add_parser(
        "events",
        help="record, summarize, and export observability event streams "
        "(see docs/observability.md)",
    )
    events_sub = sub.add_subparsers(dest="events_command", required=True)

    sub = events_sub.add_parser(
        "record", help="run one cell with the event bus on and store the stream")
    common.cell(sub, positional=True)
    sub.add_argument("--no-store", action="store_true",
                     help="print the summary without persisting the stream")
    sub.set_defaults(handler=cmd_record)

    sub = events_sub.add_parser(
        "stats", help="per-reason stall breakdown (Fig 2c-style) for one cell")
    common.cell(sub, positional=True)
    sub.add_argument("--format", choices=["text", "json"], default="text")
    sub.add_argument("--force", action="store_true",
                     help="re-record even if a stored stream exists")
    sub.add_argument("--no-store", action="store_true")
    sub.set_defaults(handler=cmd_stats)

    sub = events_sub.add_parser(
        "export", help="export a recorded stream (chrome = Perfetto-loadable JSON)")
    common.cell(sub, positional=True)
    sub.add_argument("--format", choices=["chrome", "csv", "json"],
                     default="chrome")
    sub.add_argument("-o", "--output", default=None,
                     help="output path (default: <wl>-<scheme>.trace.json "
                     "for chrome, stdout otherwise)")
    sub.add_argument("--force", action="store_true")
    sub.add_argument("--no-store", action="store_true")
    sub.set_defaults(handler=cmd_export)

    sub = events_sub.add_parser(
        "schema", help="print the event schema (field names per kind)")
    sub.add_argument("--check", action="store_true",
                     help="validate schema consistency and exit")
    sub.set_defaults(handler=cmd_schema)

    sub = events_sub.add_parser("info", help="list stored event recordings")
    sub.set_defaults(handler=cmd_info)


def _load_or_record(
    args: argparse.Namespace, record: bool = False,
) -> Tuple[List[tuple], Dict[str, object], Any, Path]:
    """``(events, meta, result, path)`` of the cell: unless ``record`` or
    ``--force``, its stored recording when there is one (``result`` is then
    ``None``), else a fresh one, stored at ``path`` unless ``--no-store``."""
    from ..core.cawa import apply_scheme
    from .harness import record_events

    cfg = apply_scheme(args.config, args.scheme)
    path = store.event_path(store.event_key(args.workload, args.scheme,
                                            args.scale, cfg.fingerprint()))
    if not record and path.exists() and not args.force:
        events, meta = store.load_events(path)
        return events, meta, None, path

    result: Any
    result, bus = record_events(args.workload, args.scheme, scale=args.scale,
                                config=args.config)
    events = bus.events()
    meta = {
        "workload": args.workload, "scheme": args.scheme, "scale": args.scale,
        "cycles": result.cycles, "frontend": result.frontend,
        "sampling": cfg.sampling, "fingerprint": cfg.fingerprint(),
    }
    if not args.no_store:
        store.save_events(path, events, meta)
    return events, meta, result, path


def cmd_record(args: argparse.Namespace) -> int:
    events, _meta, result, path = _load_or_record(args, record=True)
    print(result.summary())
    print(f"recorded {len(events)} events"
          + ("" if args.no_store else f" -> {path}"))
    for name, count in kind_counts(events).items():
        print(f"  {name:<16} {count}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    events, meta = _load_or_record(args)[:2]
    acct = StallAccounting().extend(events)
    if args.format == "json":
        payload = acct.to_dict()
        payload["kind_counts"] = kind_counts(events)
        payload["meta"] = dict(meta)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{args.workload} / {args.scheme}: {len(events)} events")
    print(acct.format_table())
    key, breakdown = acct.critical_warp()
    cells = "  ".join(f"{n}={c:.0f}" for n, c in sorted(
        breakdown.items(), key=lambda kv: (-kv[1], kv[0])))
    print(f"critical warp sm{key[0]} b{key[1]}/w{key[2]}: {cells}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    events = _load_or_record(args)[0]
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


def cmd_info(args: argparse.Namespace) -> int:
    entries = store.list_events()
    if not entries:
        print(f"no event recordings under {store.events_dir()}")
        return 0
    for key, path in entries:
        print(f"{key:<48} {path}")
    return 0
