"""Command-line interface.

Usage (``python -m repro <command>``)::

    python -m repro list
    python -m repro run --workload kmeans --scheme cawa
    python -m repro sweep --workloads bfs,kmeans --schemes rr,gto,cawa
    python -m repro sweep --sampled --workloads backprop,pathfinder
    python -m repro sample calibrate --workloads backprop --rates 0.1,0.25
    python -m repro sample rates
    python -m repro sample run --workload backprop --scheme gto
    python -m repro figure 9
    python -m repro tables
    python -m repro lint --all
    python -m repro lint --workload bfs --format json
    python -m repro trace record --workload bfs
    python -m repro trace replay --workload bfs --scheme cawa
    python -m repro trace info
    python -m repro events record bfs cawa
    python -m repro events stats bfs cawa
    python -m repro events export --format chrome bfs cawa
    python -m repro events schema --check
    python -m repro serve --port 8642 --workers 4
    python -m repro client submit --workload bfs --scheme cawa --watch
    python -m repro client stats
    python -m repro cache stats
    python -m repro cache gc --max-age-days 30
    python -m repro schemes
    python -m repro schemes --signals
    python -m repro schemes --compare --workloads backprop,kmeans
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional

from .config import GPUConfig
from .core.cawa import SCHEMES
from .experiments import FIGURES
from .experiments.runner import run_scheme, run_sweep, sweep_table
from .stats.report import format_table
from .workloads import NON_SENS_WORKLOADS, SENS_WORKLOADS, workload_names


def _base_config(args) -> GPUConfig:
    if getattr(args, "fermi", False):
        return GPUConfig.fermi_gtx480()
    return GPUConfig.default_sim()


def _trace_path_taken(result) -> str:
    """``recorded trace <id> in ...`` / ``replayed trace <id>`` /
    ``executed``: how a result was produced (``RunResult.frontend``,
    ``trace_id`` and, for the cell that made the trace, ``recorded``)."""
    if result.trace_id is None:
        return "executed (no trace)"
    if not result.recorded:
        return f"replayed trace {result.trace_id}"
    return (
        f"recorded trace {result.trace_id} in {1e3 * result.record_s:.0f} ms "
        f"({result.record_steps} steps, {result.record_warps} warps), "
        f"replayed in {1e3 * result.replay_s:.0f} ms"
    )


def cmd_list(args) -> int:
    print("Workloads (Table 2):")
    for name in SENS_WORKLOADS:
        print(f"  {name:<16} [Sens]")
    for name in NON_SENS_WORKLOADS:
        print(f"  {name:<16} [Non-sens]")
    print("\nSchemes:")
    for scheme, (scheduler, cacp) in SCHEMES.items():
        cacp_note = " + CACP" if cacp else ""
        print(f"  {scheme:<16} scheduler={scheduler}{cacp_note}")
    print(f"\nFigures: {', '.join(str(f) for f in FIGURES)} (plus 'tables')")
    return 0


def cmd_schemes(args) -> int:
    from .feedback.signals import Sig, schema_table
    from .scheduling.registry import SCHEDULERS

    if args.signals:
        print(schema_table())
        return 0
    if args.compare:
        from .experiments.schemes_table import (
            DEFAULT_WORKLOADS,
            format_head_to_head,
            schemes_head_to_head,
        )

        workloads = (
            args.workloads.split(",") if args.workloads
            else list(DEFAULT_WORKLOADS)
        )
        results = schemes_head_to_head(
            workloads, scale=args.scale, config=_base_config(args),
            parallel=args.parallel,
        )
        print(format_head_to_head(results, workloads))
        return 0
    print("Registered warp schedulers (see docs/schemes.md):")
    for name in sorted(SCHEDULERS):
        scheduler = SCHEDULERS[name]
        if name != scheduler.name:
            print(f"  {name:<10} alias of {scheduler.name}")
            continue
        kinds = scheduler.FEEDBACK_KINDS
        signals = (
            "subscribes: " + ",".join(Sig(k).name for k in kinds)
            if kinds else "no feedback subscription"
        )
        print(f"  {name:<10} {scheduler.DESCRIPTION}")
        print(f"  {'':<10} {signals}")
    return 0


def cmd_run(args) -> int:
    result = run_scheme(
        args.workload,
        args.scheme,
        scale=args.scale,
        config=_base_config(args),
        check=not args.no_check,
        use_cache=False,
    )
    print(result.summary())
    print(
        f"warp instructions: {result.warp_instructions}, "
        f"thread instructions: {result.thread_instructions}, "
        f"DRAM accesses: {result.dram_accesses}"
    )
    print(
        f"L1D: {result.l1_stats.hits}/{result.l1_stats.accesses} hits, "
        f"critical hit rate {result.critical_hit_rate:.1%}; "
        f"L2 hit rate {result.l2_stats.hit_rate:.1%}"
    )
    print(_trace_path_taken(result))
    return 0


def cmd_sweep(args) -> int:
    workloads = args.workloads.split(",") if args.workloads else workload_names()
    schemes = args.schemes.split(",")
    sampled = False if args.exact else args.sampled
    results = run_sweep(workloads, schemes, scale=args.scale,
                        config=_base_config(args), sampled=sampled)
    metric = {
        "ipc": lambda r: round(r.ipc, 3),
        "mpki": lambda r: round(r.l1_mpki, 2),
        "cycles": lambda r: int(r.cycles),
    }[args.metric]
    print(sweep_table(results, workloads, schemes, metric, "workload"))
    if args.metric == "ipc" and "rr" in schemes:
        rows = []
        for workload in workloads:
            base = results[(workload, "rr")].ipc
            rows.append(
                [workload]
                + [f"{results[(workload, s)].ipc / base:.2f}x" for s in schemes]
            )
        print("\nSpeedup over rr:")
        print(format_table(["workload"] + schemes, rows))
    if sampled:
        metric_key = {"ipc": "ipc", "mpki": "l1_mpki",
                      "cycles": "cycles"}[args.metric]
        rows = []
        for workload in workloads:
            row = [workload]
            for scheme in schemes:
                result = results[(workload, scheme)]
                est = getattr(result, "ci", {}).get(metric_key)
                row.append(f"+/-{100.0 * est.rel_half_width:.1f}%"
                           if est is not None else "exact")
            rows.append(row)
        print(f"\nsampled 95% CI half-width ({args.metric}):")
        print(format_table(["workload"] + schemes, rows))
    recorded = sum(r.recorded for r in results.values())
    replayed = sum(r.frontend == "trace" for r in results.values()) - recorded
    print(f"\nrecorded {recorded}, replayed {replayed}")
    return 0


def cmd_sample(args) -> int:
    """Calibrate, inspect, or run the sampled trace-replay frontend."""
    import json

    from .sampling import calibrate as sampling_calibrate
    from .stats.report import format_estimate_table

    if args.sample_command == "calibrate":
        workloads = args.workloads.split(",")
        schemes = args.schemes.split(",")
        rates = tuple(float(r) for r in args.rates.split(","))
        report = sampling_calibrate.calibrate(
            workloads, schemes=schemes, rates=rates, scale=args.scale,
            config=_base_config(args), mode=args.mode,
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

    if args.sample_command == "rates":
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

    # sample run: one sampled cell with its full CI table.
    spec = args.spec
    if spec is None:
        spec, _envelope, _source = sampling_calibrate.lookup(args.workload)
        if spec is None:
            print(f"error: calibration marked {args.workload!r} unsafe to "
                  "sample at every candidate rate; pass --spec to override",
                  file=sys.stderr)
            return 2
    cfg = _base_config(args).with_sampling(spec)
    result = run_scheme(args.workload, args.scheme, scale=args.scale,
                        config=cfg, use_cache=not args.force)
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
    from .stats.sampling import REPORT_METRICS

    order = [name for name in REPORT_METRICS if name in result.ci]
    print(format_estimate_table(result.ci, order=order))
    return 0


def cmd_profile(args) -> int:
    from .experiments import profiling

    profiling.profile_run(
        args.workload, args.scheme, scale=args.scale,
        config=_base_config(args), sort=args.sort, top=args.top,
    )
    return 0


def cmd_lint(args) -> int:
    """Statically analyze workload kernels (``repro lint``)."""
    import json

    from .analysis import lint_kernel
    from .gpu import GPU
    from .workloads import make_workload

    config = _base_config(args)
    names = (
        workload_names(include_synthetic=True) if args.all else [args.workload]
    )
    reports = []
    for name in names:
        # Building the workload (not simulating it) materializes its kernel.
        gpu = GPU(config)
        spec = make_workload(name, scale=args.scale).build(gpu)
        reports.append(
            lint_kernel(
                spec.kernel,
                warp_size=config.warp_size,
                line_size=config.l1d.line_size,
            )
        )
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


def cmd_sanitize(args) -> int:
    """Statically check the simulator's own source (``repro sanitize``)."""
    from pathlib import Path

    from .sanitize import RULES, sanitize_tree

    rules = None
    if args.rule:
        unknown = [r for r in args.rule if r not in RULES]
        if unknown:
            print(
                f"unknown sanitize rule(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(RULES))})",
                file=sys.stderr,
            )
            return 2
        rules = args.rule
    root = Path(args.root) if args.root else None
    report = sanitize_tree(root, rules=rules)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    return 0 if report.ok else 1


def cmd_trace(args) -> int:
    from . import trace as trace_mod
    from .errors import TraceError

    config = _base_config(args)
    if args.trace_command == "record":
        try:
            result, program = trace_mod.record_workload(
                args.workload, scale=args.scale, config=config,
                scheme=args.scheme, check=not args.no_check,
            )
        except TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        path = trace_mod.store_program(program, args.workload, args.scale, config)
        print(result.summary())
        print(
            f"recorded trace {program.trace_id}: "
            f"{len(program.launches)} launch(es), "
            f"{program.record_count} records in {result.record_steps} steps -> "
            f"{path or 'memory only (disk cache disabled or unwritable)'}"
        )
        return 0

    if args.trace_command == "replay":
        try:
            program = trace_mod.load_program(
                args.workload, args.scale, config, strict=True
            )
        except TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        from .core.cawa import apply_scheme
        from .experiments.runner import scheme_oracle

        cfg = apply_scheme(config, args.scheme)
        results = trace_mod.replay_program(
            program, cfg, scheme=args.scheme,
            oracle=scheme_oracle(args.workload, args.scale, config, cfg),
        )
        for result in results:
            print(result.summary())
        print(f"replayed trace {program.trace_id} ({len(results)} launch(es))")
        return 0

    # info: list every stored trace with its header metadata.
    entries = trace_mod.list_traces()
    if not entries:
        print(f"no traces under {trace_mod.trace_dir()}")
        return 0
    rows = []
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


def _events_load_or_record(args, config: GPUConfig):
    """Shared front half of ``events record`` / ``stats`` / ``export``.

    Returns ``(events, meta, result, path)``: for ``stats`` / ``export``
    without ``--force``, a stored recording for this exact (workload,
    scheme, scale, config-fingerprint) cell when one exists — ``result`` is
    then ``None`` — else (and always for ``record``) a fresh recording,
    stored at ``path`` for next time unless ``--no-store``.
    """
    from .core.cawa import apply_scheme
    from .obs import harness, store

    cfg = apply_scheme(config, args.scheme)
    key = store.event_key(args.workload, args.scheme, args.scale,
                          cfg.fingerprint())
    path = store.event_path(key)
    if (args.events_command != "record" and path.exists()
            and not getattr(args, "force", False)):
        events, meta = store.load_events(path)
        return events, meta, None, path

    result, bus = harness.record_events(
        args.workload, args.scheme, scale=args.scale, config=config,
    )
    events = bus.events()
    meta = {
        "workload": args.workload,
        "scheme": args.scheme,
        "scale": args.scale,
        "cycles": result.cycles,
        "frontend": result.frontend,
        "sampling": cfg.sampling,
        "fingerprint": cfg.fingerprint(),
    }
    if not getattr(args, "no_store", False):
        store.save_events(path, events, meta)
    return events, meta, result, path


def cmd_events(args) -> int:
    """Record, summarize, export, or describe observability event streams."""
    import json

    from .obs import (
        StallAccounting,
        chrome_trace,
        events_csv,
        kind_counts,
        schema_table,
        validate_schema,
        write_chrome_trace,
    )

    if args.events_command == "schema":
        if args.check:
            validate_schema()
            print("events schema OK")
            return 0
        from .obs import SCHEMA_VERSION

        print(f"event schema v{SCHEMA_VERSION} "
              f"(common fields: kind, cycle, sm)")
        for name, code, fields in schema_table():
            print(f"  {code:>3}  {name:<16} {', '.join(fields)}")
        return 0

    config = _base_config(args)

    if args.events_command == "record":
        events, _meta, result, path = _events_load_or_record(args, config)
        print(result.summary())
        print(f"recorded {len(events)} events"
              + ("" if args.no_store else f" -> {path}"))
        for name, count in kind_counts(events).items():
            print(f"  {name:<16} {count}")
        return 0

    if args.events_command == "stats":
        events, meta = _events_load_or_record(args, config)[:2]
        acct = StallAccounting().extend(events)
        if args.format == "json":
            payload = acct.to_dict()
            payload["kind_counts"] = kind_counts(events)
            payload["meta"] = {k: v for k, v in meta.items()}
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"{args.workload} / {args.scheme}: {len(events)} events")
        print(acct.format_table())
        key, breakdown = acct.critical_warp()
        cells = "  ".join(f"{n}={c:.0f}" for n, c in sorted(
            breakdown.items(), key=lambda kv: (-kv[1], kv[0])))
        print(f"critical warp sm{key[0]} b{key[1]}/w{key[2]}: {cells}")
        return 0

    if args.events_command == "export":
        events = _events_load_or_record(args, config)[0]
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
            from .obs import event_to_dict

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

    # info: list stored recordings.
    from .obs import store

    entries = store.list_events()
    if not entries:
        print(f"no event recordings under {store.events_dir()}")
        return 0
    for key, path in entries:
        print(f"{key:<48} {path}")
    return 0


def cmd_serve(args) -> int:
    """Run the asyncio simulation service (see docs/serving.md)."""
    import asyncio

    from .serve import DEFAULT_PORT, ServerConfig
    from .serve.server import run_server

    config = ServerConfig(
        host=args.host,
        port=DEFAULT_PORT if args.port is None else args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        tenant_quota=args.tenant_quota,
        sweep_parallel=args.sweep_parallel,
    )
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        pass
    return 0


def _client_spec_from_args(args) -> dict:
    spec: dict = {"kind": args.kind, "scale": args.scale}
    if args.kind == "figure":
        if args.figure is None:
            print("error: figure jobs need --figure N", file=sys.stderr)
            raise SystemExit(2)
        spec["figure"] = args.figure
    else:
        if args.workload:
            key = "workloads" if "," in args.workload else "workload"
            spec[key] = (args.workload.split(",") if key == "workloads"
                         else args.workload)
        if args.scheme:
            key = "schemes" if "," in args.scheme else "scheme"
            spec[key] = (args.scheme.split(",") if key == "schemes"
                         else args.scheme)
    if args.fermi:
        spec["fermi"] = True
    if args.events:
        spec["events"] = True
    if args.priority != "auto":
        spec["priority"] = args.priority
    device = {}
    for knob in ("frontend", "sampling"):
        value = getattr(args, knob, None)
        if value:
            device[knob] = value
    if device:
        spec["device"] = device
    return spec


def _print_progress_record(record: dict) -> None:
    kind = record.get("kind", "?")
    rest = {k: v for k, v in record.items() if k != "kind"}
    cells = " ".join(f"{k}={v}" for k, v in sorted(rest.items())
                     if v is not None)
    print(f"  [{kind}] {cells}" if cells else f"  [{kind}]")


def cmd_client(args) -> int:
    """Talk to a running ``repro serve`` instance."""
    import json
    import time

    from .serve import ServeClient, ServeClientError

    client = ServeClient(args.server, tenant=args.tenant)
    try:
        if args.client_command == "submit":
            submitted = time.perf_counter()  # sanitize: waive DET002 -- the caller's own wait, printed, never a result
            job, coalesced = client.submit(_client_spec_from_args(args))
            verb = "coalesced into" if coalesced else "submitted"
            reused = (f", reused from {job['reused_from']}"
                      if job.get("reused_from") else "")
            print(f"{verb} job {job['id']} ({job['describe']}, "
                  f"priority {job['priority']}{reused})")
            if args.watch:
                for record in client.watch(job["id"]):
                    _print_progress_record(record)
            if args.watch or args.wait:
                final = client.wait(job["id"], timeout=args.timeout)
                if final["state"] != "done":
                    print(f"job {job['id']} {final['state']}: "
                          f"{final.get('error')}", file=sys.stderr)
                    return 1
                payload = client.result(job["id"])["payload"]
                if payload.get("summary"):
                    print(payload["summary"])
                if args.wait:
                    total = time.perf_counter() - submitted  # sanitize: waive DET002 -- as above
                    print(f"queued {1e3 * final['queue_wait_s']:.1f} ms, "
                          f"ran {1e3 * final['exec_s']:.1f} ms, "
                          f"total {1e3 * total:.1f} ms")
            return 0
        if args.client_command == "status":
            print(json.dumps(client.status(args.job_id), indent=2,
                             sort_keys=True))
            return 0
        if args.client_command == "result":
            data = client.result(args.job_id)
            if args.format == "json":
                print(json.dumps(data, indent=2, sort_keys=True))
            else:
                payload = data["payload"]
                if payload.get("summary"):
                    print(payload["summary"])
                elif payload.get("text"):
                    print(payload["text"])
                else:
                    for cell in payload.get("cells", ()):
                        print(f"{cell['workload']:<20} {cell['scheme']:<12} "
                              f"{cell['result']['cycles']:>10.0f} cycles")
            return 0
        if args.client_command == "watch":
            for record in client.watch(args.job_id, timeout=args.timeout):
                _print_progress_record(record)
            return 0
        if args.client_command == "cancel":
            job = client.cancel(args.job_id)
            print(f"job {job['id']} cancelled")
            return 0
        if args.client_command == "pause":
            client.pause()
            print("dispatch paused")
            return 0
        if args.client_command == "resume":
            client.resume()
            print("dispatch resumed")
            return 0
        if args.client_command == "shutdown":
            client.shutdown(drain=not args.no_drain)
            print("shutdown requested"
                  + (" (draining)" if not args.no_drain else ""))
            return 0
        # stats
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
        return 0
    except ServeClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def cmd_cache(args) -> int:
    """Inspect or garbage-collect the persistent ``.repro_cache/`` stores."""
    import json

    from .experiments import result_cache
    from .obs import store as event_store
    from .trace import store as trace_store

    stores = {
        "results": result_cache,
        "traces": trace_store,
        "events": event_store,
    }
    if args.cache_command == "gc":
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
        total = 0
        for name in names:
            removed = stores[name].gc(
                max_age_seconds=max_age, max_entries=args.max_entries
            )
            total += removed
            print(f"{name:<8} removed {removed} entr"
                  f"{'y' if removed == 1 else 'ies'}")
        print(f"total    removed {total}")
        return 0

    # stats
    payload = {name: store.stats() for name, store in stores.items()}
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{'store':<8} {'entries':>8} {'bytes':>12}  dir")
    for name, info in payload.items():
        print(f"{name:<8} {info['entries']:>8} {info['bytes']:>12}  "
              f"{info['dir']}")
    return 0


def cmd_figure(args) -> int:
    if args.number not in FIGURES:
        print(f"no module for figure {args.number}; available: {FIGURES}",
              file=sys.stderr)
        return 2
    module = importlib.import_module(f"repro.experiments.fig{args.number:02d}")
    data = module.run(scale=args.scale, config=_base_config(args))
    print(module.render(data))
    return 0


def cmd_tables(args) -> int:
    from .experiments import tables

    print(tables.table1(_base_config(args) if args.fermi else None))
    print()
    print(tables.table2())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAWA (ISCA 2015) reproduction: run workloads, schemes, "
        "and paper figures on the SIMT GPU simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, schemes, and figures")

    p_run = sub.add_parser("run", help="run one workload under one scheme")
    p_run.add_argument("--workload", required=True,
                       choices=workload_names(include_synthetic=True))
    p_run.add_argument("--scheme", default="rr", choices=sorted(SCHEMES))
    p_run.add_argument("--scale", type=float, default=1.0)
    p_run.add_argument("--fermi", action="store_true",
                       help="use the full Table 1 GTX480 configuration (slow)")
    p_run.add_argument("--no-check", action="store_true",
                       help="skip functional verification")

    p_sweep = sub.add_parser("sweep", help="run a workload x scheme grid")
    p_sweep.add_argument("--workloads", default="",
                         help="comma-separated names (default: all of Table 2)")
    p_sweep.add_argument("--schemes", default="rr,gto,cawa")
    p_sweep.add_argument("--metric", default="ipc",
                         choices=["ipc", "mpki", "cycles"])
    p_sweep.add_argument("--scale", type=float, default=1.0)
    p_sweep.add_argument("--fermi", action="store_true")
    p_sweep.add_argument(
        "--sampled", nargs="?", const=True, default=False, metavar="SPEC",
        help="statistical replay: estimate each cell from a sampled subset "
        "of its trace with 95%% CIs (bare flag: per-workload calibrated "
        "rates from 'repro sample calibrate'; a SPEC such as 'blocks:0.1' "
        "forces one rate everywhere); see docs/sampling.md",
    )
    p_sweep.add_argument("--exact", action="store_true",
                         help="force exact replay (overrides --sampled)")

    p_prof = sub.add_parser("profile", help="cProfile one run")
    p_prof.add_argument("workload",
                        choices=workload_names(include_synthetic=True))
    p_prof.add_argument("scheme", nargs="?", default="cawa",
                        choices=sorted(SCHEMES))
    p_prof.add_argument("--scale", type=float, default=1.0)
    p_prof.add_argument("--fermi", action="store_true")
    p_prof.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"])
    p_prof.add_argument("--top", type=int, default=25,
                        help="number of profile rows to print")

    p_lint = sub.add_parser(
        "lint",
        help="statically analyze workload kernels (CFG, dataflow, CPL "
        "path-length bounds); see docs/static_analysis.md",
    )
    lint_target = p_lint.add_mutually_exclusive_group(required=True)
    lint_target.add_argument("--workload",
                             choices=workload_names(include_synthetic=True))
    lint_target.add_argument("--all", action="store_true",
                             help="lint every registered workload kernel")
    p_lint.add_argument("--format", choices=["text", "json"], default="text")
    p_lint.add_argument("--scale", type=float, default=1.0)
    p_lint.add_argument("--fermi", action="store_true")

    p_sanitize = sub.add_parser(
        "sanitize",
        help="statically check the simulator's own source (fingerprint "
        "soundness, determinism, probe coverage, protocol conformance); "
        "see docs/static_analysis.md",
    )
    p_sanitize.add_argument(
        "--rule", action="append", metavar="ID",
        help="restrict to this rule ID (repeatable; default: all rules)",
    )
    p_sanitize.add_argument(
        "--all", action="store_true",
        help="run every rule (the default; accepted for symmetry with "
        "'repro lint --all')",
    )
    p_sanitize.add_argument("--format", choices=["text", "json"],
                            default="text")
    p_sanitize.add_argument(
        "--root", default=None,
        help="tree to analyze (default: the installed repro package)",
    )

    p_trace = sub.add_parser(
        "trace",
        help="record, replay, or inspect trace-driven simulation traces",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trec = trace_sub.add_parser(
        "record", help="run a workload's functional pass and store its trace"
    )
    p_trec.add_argument("--workload", required=True,
                        choices=workload_names(include_synthetic=True))
    p_trec.add_argument("--scheme", default="rr", choices=sorted(SCHEMES),
                        help="scheme of the replay printed with the recording "
                        "(the functional pass involves no scheduler; default rr)")
    p_trec.add_argument("--scale", type=float, default=1.0)
    p_trec.add_argument("--fermi", action="store_true")
    p_trec.add_argument("--no-check", action="store_true",
                        help="skip functional verification")
    p_trep = trace_sub.add_parser(
        "replay", help="replay a stored trace through the timing model"
    )
    p_trep.add_argument("--workload", required=True,
                        choices=workload_names(include_synthetic=True))
    p_trep.add_argument("--scheme", default="rr", choices=sorted(SCHEMES))
    p_trep.add_argument("--scale", type=float, default=1.0)
    p_trep.add_argument("--fermi", action="store_true")
    trace_sub.add_parser("info", help="list stored traces and their headers")

    p_sample = sub.add_parser(
        "sample",
        help="calibrate and run sampled trace replay with error bars "
        "(see docs/sampling.md)",
    )
    sample_sub = p_sample.add_subparsers(dest="sample_command", required=True)
    p_scal = sample_sub.add_parser(
        "calibrate",
        help="sweep sampling rates against exact runs; persist safe rates",
    )
    p_scal.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    p_scal.add_argument("--schemes", default="rr,gto")
    p_scal.add_argument("--rates", default="0.05,0.1,0.25,0.5",
                        help="comma-separated candidate sampling rates")
    p_scal.add_argument("--scale", type=float, default=1.0)
    p_scal.add_argument("--mode", choices=["blocks", "intervals"],
                        default="blocks")
    p_scal.add_argument("--target", type=float, default=0.08,
                        help="worst-case relative-error target (default 0.08)")
    p_scal.add_argument("--safety", type=float, default=2.0,
                        help="envelope inflation over the measured error")
    p_scal.add_argument("--no-persist", action="store_true",
                        help="report without writing the rate table")
    p_scal.add_argument("--fermi", action="store_true")
    p_srates = sample_sub.add_parser(
        "rates", help="print the persisted per-workload safe-rate table"
    )
    p_srates.add_argument("--format", choices=["text", "json"],
                          default="text")
    p_srun = sample_sub.add_parser(
        "run", help="run one cell sampled and print its per-metric CI table"
    )
    p_srun.add_argument("--workload", required=True,
                        choices=workload_names(include_synthetic=True))
    p_srun.add_argument("--scheme", default="rr", choices=sorted(SCHEMES))
    p_srun.add_argument("--scale", type=float, default=1.0)
    p_srun.add_argument("--spec", default=None,
                        help="sampling spec, e.g. 'blocks:0.25' (default: "
                        "the calibrated rate, else the built-in default)")
    p_srun.add_argument("--force", action="store_true",
                        help="bypass the result cache")
    p_srun.add_argument("--fermi", action="store_true")

    p_events = sub.add_parser(
        "events",
        help="record, summarize, and export observability event streams "
        "(see docs/observability.md)",
    )
    events_sub = p_events.add_subparsers(dest="events_command", required=True)

    def _events_run_args(p, positional=True):
        if positional:
            p.add_argument("workload",
                           choices=workload_names(include_synthetic=True))
            p.add_argument("scheme", nargs="?", default="rr",
                           choices=sorted(SCHEMES))
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--fermi", action="store_true")

    p_erec = events_sub.add_parser(
        "record", help="run one cell with the event bus on and store the stream"
    )
    _events_run_args(p_erec)
    p_erec.add_argument("--no-store", action="store_true",
                        help="print the summary without persisting the stream")
    p_estat = events_sub.add_parser(
        "stats", help="per-reason stall breakdown (Fig 2c-style) for one cell"
    )
    _events_run_args(p_estat)
    p_estat.add_argument("--format", choices=["text", "json"], default="text")
    p_estat.add_argument("--force", action="store_true",
                         help="re-record even if a stored stream exists")
    p_estat.add_argument("--no-store", action="store_true")
    p_eexp = events_sub.add_parser(
        "export",
        help="export a recorded stream (chrome = Perfetto-loadable JSON)",
    )
    _events_run_args(p_eexp)
    p_eexp.add_argument("--format", choices=["chrome", "csv", "json"],
                        default="chrome")
    p_eexp.add_argument("-o", "--output", default=None,
                        help="output path (default: <wl>-<scheme>.trace.json "
                        "for chrome, stdout otherwise)")
    p_eexp.add_argument("--force", action="store_true")
    p_eexp.add_argument("--no-store", action="store_true")
    p_esch = events_sub.add_parser(
        "schema", help="print the event schema (field names per kind)"
    )
    p_esch.add_argument("--check", action="store_true",
                        help="validate schema consistency and exit")
    events_sub.add_parser("info", help="list stored event recordings")

    p_serve = sub.add_parser(
        "serve",
        help="run the asyncio simulation service (see docs/serving.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=None,
                         help="TCP port (default 8642; 0 = ephemeral)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="executor processes simulating jobs")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="admission bound on queued jobs (503 beyond)")
    p_serve.add_argument("--tenant-quota", type=int, default=8,
                         help="per-tenant in-flight job cap (429 beyond)")
    p_serve.add_argument("--sweep-parallel", action="store_true",
                         help="let sweep jobs fan out inside their worker")

    p_client = sub.add_parser(
        "client",
        help="submit and track jobs on a running `repro serve` instance",
    )
    p_client.add_argument("--server", default=None,
                          help="base URL (default: $REPRO_SERVE_URL or "
                          "http://127.0.0.1:8642)")
    p_client.add_argument("--tenant", default="anon",
                          help="tenant id for quota accounting")
    p_client.add_argument("--timeout", type=float, default=600.0,
                          help="seconds to wait/watch before giving up")
    client_sub = p_client.add_subparsers(dest="client_command", required=True)
    p_csub = client_sub.add_parser("submit", help="submit a job")
    p_csub.add_argument("--kind", choices=["run", "sweep", "figure"],
                        default="run")
    p_csub.add_argument("--workload", default=None,
                        help="workload name (comma-separate for sweeps)")
    p_csub.add_argument("--scheme", default=None,
                        help="scheme name (comma-separate for sweeps)")
    p_csub.add_argument("--scale", type=float, default=1.0)
    p_csub.add_argument("--figure", type=int, default=None)
    p_csub.add_argument("--fermi", action="store_true")
    p_csub.add_argument("--events", action="store_true",
                        help="stream live obs progress over SSE (bypasses "
                        "the result cache: recording runs always simulate)")
    p_csub.add_argument("--priority", choices=["auto", "interactive", "batch"],
                        default="auto")
    p_csub.add_argument("--frontend", choices=["execute", "trace"],
                        default=None,
                        help="'execute' forces functional execution (the "
                        "parity reference); default: replay a recorded "
                        "trace, recording on a miss")
    p_csub.add_argument("--sampling", default=None, metavar="SPEC",
                        help="sampled replay spec for run jobs, e.g. "
                        "'blocks:0.25' (changes the answer: never "
                        "coalesces with exact jobs)")
    p_csub.add_argument("--watch", action="store_true",
                        help="stream progress, then print the summary")
    p_csub.add_argument("--wait", action="store_true",
                        help="block until done, then print the summary")
    for name, help_text in (
        ("status", "print one job's status"),
        ("result", "print a finished job's result"),
        ("watch", "stream a job's SSE progress"),
        ("cancel", "cancel a queued job"),
    ):
        p = client_sub.add_parser(name, help=help_text)
        p.add_argument("job_id")
        if name == "result":
            p.add_argument("--format", choices=["text", "json"],
                           default="text")
    client_sub.add_parser("stats", help="print queue/cache metrics")
    client_sub.add_parser("pause", help="hold dispatch (admission continues)")
    client_sub.add_parser("resume", help="resume dispatch")
    p_cshut = client_sub.add_parser("shutdown",
                                    help="gracefully stop the server")
    p_cshut.add_argument("--no-drain", action="store_true",
                         help="cancel queued jobs instead of finishing them")

    p_cache = sub.add_parser(
        "cache",
        help="inspect or garbage-collect the .repro_cache/ stores",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cstat = cache_sub.add_parser("stats", help="entry/byte counts per store")
    p_cstat.add_argument("--format", choices=["text", "json"], default="text")
    p_cgc = cache_sub.add_parser(
        "gc", help="lock-safe removal of stale entries"
    )
    p_cgc.add_argument("--max-age-days", type=float, default=None,
                       help="drop entries older than this many days")
    p_cgc.add_argument("--max-entries", type=int, default=None,
                       help="keep at most this many newest entries per store")
    p_cgc.add_argument("--what", default=None,
                       help="comma-separated stores (results,traces,events); "
                       "default all")

    p_fig = sub.add_parser("figure", help="regenerate one paper figure")
    p_fig.add_argument("number", type=int)
    p_fig.add_argument("--scale", type=float, default=1.0)
    p_fig.add_argument("--fermi", action="store_true")

    p_tab = sub.add_parser("tables", help="print Tables 1 and 2")
    p_tab.add_argument("--fermi", action="store_true")

    p_schemes = sub.add_parser(
        "schemes",
        help="list registered schedulers and their feedback subscriptions",
    )
    p_schemes.add_argument(
        "--signals", action="store_true",
        help="print the feedback signal schema instead",
    )
    p_schemes.add_argument(
        "--compare", action="store_true",
        help="run the co-design head-to-head (IPC/MPKI vs gto/caws/cawa)",
    )
    p_schemes.add_argument("--workloads", default="",
                           help="comma-separated list for --compare")
    p_schemes.add_argument("--scale", type=float, default=1.0)
    p_schemes.add_argument("--parallel", action="store_true")
    p_schemes.add_argument("--fermi", action="store_true")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "sample": cmd_sample,
        "profile": cmd_profile,
        "figure": cmd_figure,
        "tables": cmd_tables,
        "lint": cmd_lint,
        "sanitize": cmd_sanitize,
        "trace": cmd_trace,
        "events": cmd_events,
        "serve": cmd_serve,
        "client": cmd_client,
        "cache": cmd_cache,
        "schemes": cmd_schemes,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
