"""``repro list | run | sweep | profile | figure | tables | cache``:
the experiment harness's commands (registered by :mod:`repro.cli`)."""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from ..core.cawa import REMOVED_SCHEMES, SCHEMES
from ..scheduling.registry import SCHEDULERS
from ..stats.report import format_table
from ..workloads import NON_SENS_WORKLOADS, SENS_WORKLOADS, workload_names
from . import FIGURES, runner


def register(subparsers, common) -> None:
    sub = subparsers.add_parser("list", help="list workloads, schemes, and figures")
    sub.set_defaults(handler=cmd_list)

    sub = subparsers.add_parser("run", help="run one workload under one scheme")
    common.cell(sub)
    sub.add_argument("--no-check", action="store_true",
                     help="skip functional verification")
    sub.set_defaults(handler=cmd_run)

    sub = subparsers.add_parser("sweep", help="run a workload x scheme grid")
    sub.add_argument("--workloads", type=_workloads, default="",
                     help="comma-separated names (default: all of Table 2)")
    sub.add_argument("--schemes", type=_schemes, default="rr,gto,cawa")
    sub.add_argument("--metric", default="ipc", choices=["ipc", "mpki", "cycles"])
    common.scale(sub)
    common.fermi(sub)
    common.jobs(sub)
    sub.set_defaults(handler=cmd_sweep)

    sub = subparsers.add_parser(
        "profile", help="sample one cell's replays: host time by layer and function")
    common.cell(sub, positional=True, scheme="cawa")
    sub.add_argument("--top", type=int, default=25,
                     help="number of functions to print")
    sub.set_defaults(handler=cmd_profile)

    sub = subparsers.add_parser(
        "cache", help="inspect or garbage-collect the .repro_cache/ stores")
    cache_sub = sub.add_subparsers(dest="cache_command", required=True)
    sub = cache_sub.add_parser("stats", help="entry/byte counts per store")
    sub.add_argument("--format", choices=["text", "json"], default="text")
    sub.set_defaults(handler=cmd_cache_stats)
    sub = cache_sub.add_parser("gc", help="lock-safe removal of stale entries")
    sub.add_argument("--max-age-days", type=float, default=None,
                     help="drop entries older than this many days")
    sub.add_argument("--max-entries", type=int, default=None,
                     help="keep at most this many newest entries per store")
    sub.add_argument("--what", default=None,
                     help="comma-separated stores (results,traces); "
                     "default all")
    sub.set_defaults(handler=cmd_cache_gc)

    sub = subparsers.add_parser("figure", help="regenerate one paper figure")
    sub.add_argument("number", type=int)
    common.scale(sub)
    common.fermi(sub)
    sub.set_defaults(handler=cmd_figure)

    sub = subparsers.add_parser("tables", help="print Tables 1 and 2")
    common.fermi(sub)
    sub.set_defaults(handler=cmd_tables)


def _known(kind: str, name: str, known, removed=None) -> str:
    """``name`` if it is in ``known``; else the argparse error naming it
    (and, for a ``removed`` name, why it went)."""
    if removed and name in removed:
        raise argparse.ArgumentTypeError(
            f"{kind} {name!r} was removed: {removed[name]}")
    if name not in known:
        raise argparse.ArgumentTypeError(
            f"unknown {kind} {name!r}; expected one of {', '.join(known)}")
    return name


def _schemes(text: str) -> list:
    return [_known("scheme", name, sorted(SCHEMES), REMOVED_SCHEMES)
            for name in text.split(",")]


def _workloads(text: str) -> list:
    if not text:
        return workload_names()
    known = workload_names(include_synthetic=True)
    return [_known("workload", name, known) for name in text.split(",")]


def cmd_list(args) -> int:
    print("Workloads (Table 2):")
    for name in SENS_WORKLOADS:
        print(f"  {name:<16} [Sens]")
    for name in NON_SENS_WORKLOADS:
        print(f"  {name:<16} [Non-sens]")
    print("\nSchemes (name, scheduler [+ CACP], what the scheduler does):")
    for scheme, (scheduler, cacp) in SCHEMES.items():
        pick = scheduler + (" + CACP" if cacp else "")
        print(f"  {scheme:<16} {pick:<17} {SCHEDULERS[scheduler].DESCRIPTION}")
    print(f"\nFigures: {', '.join(str(f) for f in FIGURES)} (plus 'tables')")
    return 0


def _trace_path_taken(result) -> str:
    """How ``result`` was made: ``recorded trace <id> in ...`` (the cell
    made its trace), ``replayed trace <id>`` or ``executed``."""
    if result.trace_id is None:
        return "executed (no trace)"
    if not result.recorded:
        return f"replayed trace {result.trace_id}"
    return (
        f"recorded trace {result.trace_id} in {1e3 * result.record_s:.0f} ms "
        f"({result.record_steps} steps, {result.record_warps} warps), "
        f"replayed in {1e3 * result.replay_s:.0f} ms"
    )


def cmd_run(args) -> int:
    result = runner.run_scheme(args.workload, args.scheme, scale=args.scale,
                               config=args.config, check=not args.no_check,
                               use_cache=False)
    print(result.summary())
    print(f"warp instructions: {result.warp_instructions}, "
          f"thread instructions: {result.thread_instructions}, "
          f"DRAM accesses: {result.dram_accesses}")
    print(f"L1D: {result.l1_stats.hits}/{result.l1_stats.accesses} hits, "
          f"critical hit rate {result.critical_hit_rate:.1%}; "
          f"L2 hit rate {result.l2_stats.hit_rate:.1%}")
    print(_trace_path_taken(result))
    return 0


def cmd_sweep(args) -> int:
    workloads, schemes = args.workloads, args.schemes
    start = runner.cells_simulated()
    results = runner.run_sweep(workloads, schemes, scale=args.scale,
                               config=args.config, jobs=args.jobs)
    metric = {"ipc": lambda r: round(r.ipc, 3),
              "mpki": lambda r: round(r.l1_mpki, 2),
              "cycles": lambda r: int(r.cycles)}[args.metric]
    print(runner.sweep_table(results, workloads, schemes, metric, "workload"))
    if args.metric == "ipc" and "rr" in schemes:
        rows = [[w] + [f"{results[(w, s)].ipc / results[(w, 'rr')].ipc:.2f}x"
                       for s in schemes] for w in workloads]
        print("\nSpeedup over rr:")
        print(format_table(["workload"] + schemes, rows))
    # This invocation's work only, whichever process simulated it: a cell
    # the memo or the disk cache answered keeps the provenance of the run
    # that made it.
    ran = [r for r in results.values() if r.cell_serial > start]
    recorded = sum(r.recorded for r in ran)
    cached = len(results) - len(ran)
    print(f"\nrecorded {recorded}, replayed {len(ran) - recorded}"
          + (f", cached {cached}" if cached else ""))
    return 0


def cmd_profile(args) -> int:
    from . import profiling

    profiling.profile(args.workload, args.scheme, scale=args.scale,
                      config=args.config, top=args.top)
    return 0


def _stores() -> dict:
    from ..trace import store as trace_store
    from . import result_cache

    return {"results": result_cache, "traces": trace_store}


def cmd_cache_stats(args) -> int:
    """Entry and byte counts of the persistent ``.repro_cache/`` stores."""
    payload = {name: store.stats() for name, store in _stores().items()}
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{'store':<8} {'entries':>8} {'bytes':>12}  dir")
    results = payload["results"]
    reports = dict(results["reports"], dir=results["dir"])
    for name, info in (*payload.items(), ("reports", reports)):
        print(f"{name:<8} {info['entries']:>8} {info['bytes']:>12}  "
              f"{info['dir']}")
    return 0


def cmd_cache_gc(args) -> int:
    """Garbage-collect the persistent ``.repro_cache/`` stores."""
    stores = _stores()
    names = (args.what.split(",") if args.what else list(stores))
    bad = [n for n in names if n not in stores]
    if bad:
        print(f"error: unknown store(s) {', '.join(bad)}; "
              f"choose from {', '.join(stores)}", file=sys.stderr)
        return 2
    max_age = (args.max_age_days * 86400.0
               if args.max_age_days is not None else None)
    if max_age is None and args.max_entries is None:
        print("error: give --max-age-days and/or --max-entries",
              file=sys.stderr)
        return 2
    for flag, value in (("--max-age-days", max_age),
                        ("--max-entries", args.max_entries)):
        if value is not None and value < 0:
            print(f"error: {flag} must not be negative", file=sys.stderr)
            return 2
    total = 0
    for name in names:
        removed = stores[name].gc(max_age_seconds=max_age,
                                  max_entries=args.max_entries)
        total += removed
        print(f"{name:<8} removed {removed} entr"
              f"{'y' if removed == 1 else 'ies'}")
    print(f"total    removed {total}")
    return 0


def cmd_figure(args) -> int:
    if args.number not in FIGURES:
        print(f"no module for figure {args.number}; available: {FIGURES}",
              file=sys.stderr)
        return 2
    module = importlib.import_module(f".fig{args.number:02d}", __package__)
    data = module.run(scale=args.scale, config=args.config)
    print(module.render(data))
    return 0


def cmd_tables(args) -> int:
    from . import tables

    print(tables.table1(args.config if args.fermi else None))
    print()
    print(tables.table2())
    return 0

