"""``repro sample``: calibrate, inspect, or run the sampled trace-replay
frontend (registered by :mod:`repro.cli`)."""

from __future__ import annotations

import json
import sys

from ..stats.report import format_table
from . import calibrate as sampling_calibrate


def register(subparsers, common) -> None:
    sub = subparsers.add_parser(
        "sample",
        help="calibrate and run sampled trace replay with error bars "
        "(see docs/sampling.md)",
    )
    sample_sub = sub.add_subparsers(dest="sample_command", required=True)

    sub = sample_sub.add_parser(
        "calibrate", help="sweep sampling rates against exact runs; persist safe rates")
    sub.add_argument("--workloads", required=True,
                     help="comma-separated workload names")
    sub.add_argument("--schemes", default="rr,gto")
    sub.add_argument("--rates", default="0.05,0.1,0.25,0.5",
                     help="comma-separated candidate sampling rates")
    common.scale(sub)
    sub.add_argument("--mode", choices=["blocks", "intervals"], default="blocks")
    sub.add_argument("--target", type=float, default=0.08,
                     help="worst-case relative-error target (default 0.08)")
    sub.add_argument("--safety", type=float, default=2.0,
                     help="envelope inflation over the measured error")
    sub.add_argument("--no-persist", action="store_true",
                     help="report without writing the rate table")
    common.fermi(sub)
    sub.set_defaults(handler=cmd_calibrate)

    sub = sample_sub.add_parser(
        "rates", help="print the persisted per-workload safe-rate table")
    sub.add_argument("--format", choices=["text", "json"], default="text")
    sub.set_defaults(handler=cmd_rates)

    sub = sample_sub.add_parser(
        "run", help="run one cell sampled and print its per-metric CI table")
    common.workload(sub)
    common.scheme(sub)
    common.scale(sub)
    sub.add_argument("--spec", default=None,
                     help="sampling spec, e.g. 'blocks:0.25' (default: "
                     "the calibrated rate, else the built-in default)")
    sub.add_argument("--force", action="store_true",
                     help="bypass the result cache")
    common.fermi(sub)
    sub.set_defaults(handler=cmd_run)


def cmd_calibrate(args) -> int:
    rates = tuple(float(r) for r in args.rates.split(","))
    report = sampling_calibrate.calibrate(
        args.workloads.split(","), schemes=args.schemes.split(","),
        rates=rates, scale=args.scale, config=args.config, mode=args.mode,
        target_rel_err=args.target, safety=args.safety,
        persist=not args.no_persist,
    )
    for workload, entry in report["workloads"].items():
        spec = entry["spec"]
        if spec is None:
            print(f"{workload:<16} no rate met the "
                  f"{entry['target_rel_err']:.0%} target -- sampled "
                  "sweeps will run this workload exactly")
            continue
        stats = entry["rates"][spec.split(":", 1)[1]]
        fraction = entry.get("replay_fraction", 1.0)
        speedup = 1.0 / fraction if fraction else 1.0
        print(f"{workload:<16} {spec:<14} worst err "
              f"{stats['max_rel_err']:.1%} ({stats['worst_metric']}), "
              f"replays {fraction:.1%} of records (~{speedup:.0f}x)")
    if not args.no_persist:
        print(f"table -> {sampling_calibrate.table_path()}")
    return 0


def cmd_rates(args) -> int:
    table = sampling_calibrate.load_table()
    if args.format == "json":
        print(json.dumps(table, indent=2, sort_keys=True))
        return 0
    if not table["workloads"]:
        print(f"no calibration table at {sampling_calibrate.table_path()}")
        return 0
    rows = []
    for workload, entry in sorted(table["workloads"].items()):
        spec = entry.get("spec")
        envelope = entry.get("envelope") or {}
        fraction = entry.get("replay_fraction")
        rows.append([
            workload,
            spec if spec else "exact (failed target)",
            f"{fraction:.1%}" if fraction is not None else "-",
            f"{max(envelope.values()):.1%}" if envelope else "-",
            f"{entry.get('scale', 1.0):g}",
        ])
    print(format_table(
        ["workload", "spec", "replay", "max envelope", "scale"], rows))
    print(f"table: {sampling_calibrate.table_path()}")
    return 0


def cmd_run(args) -> int:
    """One sampled cell with its full CI table."""
    from ..experiments.runner import run_scheme
    from ..stats.report import format_estimate_table
    from ..stats.sampling import REPORT_METRICS

    spec = args.spec
    if spec is None:
        spec, _envelope, _source = sampling_calibrate.lookup(args.workload)
        if spec is None:
            print(f"error: calibration marked {args.workload!r} unsafe to "
                  "sample at every candidate rate; pass --spec to override",
                  file=sys.stderr)
            return 2
    result = run_scheme(args.workload, args.scheme, scale=args.scale,
                        config=args.config.with_sampling(spec),
                        use_cache=not args.force)
    info = getattr(result, "info", None)
    if info is None:  # pragma: no cover - sampling off implies exact result
        print(result.summary())
        return 0
    print(f"{args.workload} / {args.scheme} sampled {info.spec} "
          f"(seed {info.seed}): {info.sampled_blocks}/{info.total_blocks} "
          f"blocks in {info.strata} strata, replays "
          f"{info.replay_fraction:.1%} of records "
          f"(~{info.estimated_speedup:.0f}x), "
          f"envelope: {info.envelope_source}")
    order = [name for name in REPORT_METRICS if name in result.ci]
    print(format_estimate_table(result.ci, order=order))
    return 0
