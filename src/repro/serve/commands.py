"""``repro serve`` and ``repro client``: run the simulation service, or talk
to a running one (registered by :mod:`repro.cli`)."""

from __future__ import annotations

import json
import sys
import time

from .config import DEFAULT_PORT, ServerConfig


def register(subparsers, common) -> None:
    sub = subparsers.add_parser(
        "serve", help="run the asyncio simulation service (see docs/serving.md)")
    sub.add_argument("--host", default="127.0.0.1")
    sub.add_argument("--port", type=int, default=None,
                     help="TCP port (default 8642; 0 = ephemeral)")
    sub.add_argument("--workers", type=int, default=2,
                     help="executor processes simulating jobs")
    sub.add_argument("--max-queue", type=int, default=64,
                     help="admission bound on queued jobs (503 beyond)")
    sub.add_argument("--tenant-quota", type=int, default=8,
                     help="per-tenant in-flight job cap (429 beyond)")
    sub.add_argument("--sweep-parallel", action="store_true",
                     help="let sweep jobs fan out inside their worker")
    sub.set_defaults(handler=cmd_serve)

    sub = subparsers.add_parser(
        "client", help="submit and track jobs on a running `repro serve` instance")
    sub.add_argument("--server", default=None,
                     help="base URL (default: $REPRO_SERVE_URL or "
                     "http://127.0.0.1:8642)")
    sub.add_argument("--tenant", default="anon",
                     help="tenant id for quota accounting")
    sub.add_argument("--timeout", type=float, default=600.0,
                     help="seconds to wait/watch before giving up")
    sub.set_defaults(handler=cmd_client)
    client_sub = sub.add_subparsers(dest="client_command", required=True)
    sub = client_sub.add_parser("submit", help="submit a job")
    sub.add_argument("--kind", choices=["run", "sweep", "figure"], default="run")
    sub.add_argument("--workload", default=None,
                     help="workload name (comma-separate for sweeps)")
    sub.add_argument("--scheme", default=None,
                     help="scheme name (comma-separate for sweeps)")
    common.scale(sub)
    sub.add_argument("--figure", type=int, default=None)
    common.fermi(sub)
    sub.add_argument("--events", action="store_true",
                     help="stream live obs progress over SSE (bypasses "
                     "the result cache: recording runs always simulate)")
    sub.add_argument("--priority", choices=["auto", "interactive", "batch"],
                     default="auto")
    sub.add_argument("--sampling", default=None, metavar="SPEC",
                     help="sampled replay spec for run jobs, e.g. "
                     "'blocks:0.25' (changes the answer: never "
                     "coalesces with exact jobs)")
    sub.add_argument("--watch", action="store_true",
                     help="stream progress, then print the summary")
    sub.add_argument("--wait", action="store_true",
                     help="block until done, then print the summary")
    for name, help_text in (
        ("status", "print one job's status"),
        ("result", "print a finished job's result"),
        ("watch", "stream a job's SSE progress"),
        ("cancel", "cancel a queued job"),
    ):
        sub = client_sub.add_parser(name, help=help_text)
        sub.add_argument("job_id")
        if name == "result":
            sub.add_argument("--format", choices=["text", "json"],
                             default="text")
    client_sub.add_parser("stats", help="print queue/cache metrics")
    client_sub.add_parser("pause", help="hold dispatch (admission continues)")
    client_sub.add_parser("resume", help="resume dispatch")
    sub = client_sub.add_parser("shutdown", help="gracefully stop the server")
    sub.add_argument("--no-drain", action="store_true",
                     help="cancel queued jobs instead of finishing them")


def cmd_serve(args) -> int:
    """Run the asyncio simulation service (see docs/serving.md)."""
    import asyncio

    from .server import run_server

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


def _spec_from_args(args) -> dict:
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
    if args.sampling:
        spec["device"] = {"sampling": args.sampling}
    return spec


def _print_progress_record(record: dict) -> None:
    kind = record.get("kind", "?")
    rest = {k: v for k, v in record.items() if k != "kind"}
    cells = " ".join(f"{k}={v}" for k, v in sorted(rest.items())
                     if v is not None)
    print(f"  [{kind}] {cells}" if cells else f"  [{kind}]")


def cmd_client(args) -> int:
    """Talk to a running ``repro serve`` instance."""
    from . import ServeClient, ServeClientError

    client = ServeClient(args.server, tenant=args.tenant)
    try:
        if args.client_command == "submit":
            submitted = time.perf_counter()  # sanitize: waive DET002 -- the caller's own wait, printed, never a result
            job, coalesced = client.submit(_spec_from_args(args))
            verb = "coalesced into" if coalesced else "submitted"
            reused = (f", reused from {job['reused_from']}"
                      if job.get("reused_from") else "")
            print(f"{verb} job {job['id']} ({job['describe']}, "
                  f"priority {job['priority']}{reused})")
            if args.watch:
                for record in client.watch(job["id"], timeout=args.timeout):
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
