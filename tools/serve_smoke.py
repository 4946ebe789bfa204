#!/usr/bin/env python
"""CI smoke test for the simulation service (docs/serving.md).

Boots ``repro serve`` as a real subprocess on an ephemeral port, drives
it through the ``repro client`` CLI (the same path a user takes) — and,
where a process start per call would drown the thing measured, through
the :class:`repro.serve.ServeClient` the CLI wraps — and asserts the
service's headline guarantees end to end:

1. two identical submissions coalesce into one job — exactly two
   simulations run for three submissions (the third is distinct);
2. the SSE feed of an ``--events`` job carries live obs progress
   records (``obs`` snapshots + a terminal ``obs_summary``);
3. a repeat submission of a finished cell is answered at admission — the
   submit response is already ``done``, with ``reused_from`` naming the
   finished twin, and carries the result payload — and the whole submit
   -> wait -> result round trip is back within 50 ms;
4. admission checks value types: a payload with ``"fermi": "no"`` and one
   with ``"scale": NaN`` each get HTTP 400, and ``/stats`` ``submitted``
   does not move;
5. a draining shutdown finishes every admitted job and the server
   process exits cleanly.

Usage::

    python tools/serve_smoke.py            # (sets PYTHONPATH=src itself)

Exit status 0 on success; any guarantee violation prints a diagnostic
and exits non-zero.  Run via ``make serve-smoke``.
"""

import http.client
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from urllib.parse import urlsplit

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.serve import ServeClient  # noqa: E402

SCALE = "0.25"
#: Ceiling on a warm submit -> wait -> result round trip, seconds (about
#: 1 ms measured, one request since the answer rides the submit response;
#: 12 ms when a repeat went through a worker; 110 ms when completion was
#: polled for).
WARM_CEILING = 0.050
JOB_ID = re.compile(r"\bjob (j\d{6}-[0-9a-f]{8})\b")
LISTENING = re.compile(r"listening on (http://[\d.]+:\d+)")


def _env(cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["REPRO_CACHE_DIR"] = cache_dir
    env.setdefault("PYTHONUNBUFFERED", "1")
    return env


def client(env, url, *args, check=True):
    """Run one ``repro client`` command; returns its stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "client", "--server", url, *args],
        capture_output=True, text=True, timeout=300, env=env,
        cwd=REPO_ROOT,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"repro client {' '.join(args)} failed "
            f"(rc {proc.returncode}):\n{proc.stdout}{proc.stderr}"
        )
    return proc.stdout


def submit(env, url, *extra):
    out = client(env, url, "submit", "--workload", "synthetic_imbalance",
                 "--scale", SCALE, *extra)
    match = JOB_ID.search(out)
    if not match:
        raise AssertionError(f"no job id in submit output:\n{out}")
    return match.group(1), out.startswith("coalesced")


def warm_round_trip(api, spec, twin):
    """Seconds from submit to result in hand for a finished cell."""
    started = time.perf_counter()
    job, coalesced = api.submit(spec)
    assert not coalesced, "a finished job must not coalesce"
    assert job["state"] == "done" and job["reused_from"] == twin, \
        f"a repeat of {twin} was not answered at admission: {job}"
    state = api.wait(job["id"], timeout=60)["state"]
    assert state == "done", f"warm job ended {state}"
    api.result(job["id"])
    return time.perf_counter() - started


def post_job(url, spec):
    """The raw ``POST /jobs`` status and answer, read without
    :class:`ServeClient`."""
    split = urlsplit(url)
    conn = http.client.HTTPConnection(split.hostname, split.port, timeout=60)
    try:
        conn.request("POST", "/jobs", body=json.dumps(spec).encode("utf-8"),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.load(response)
    finally:
        conn.close()


def main() -> int:
    cache_dir = tempfile.mkdtemp(prefix="repro_serve_smoke_")
    env = _env(cache_dir)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=REPO_ROOT,
    )
    server_log = []
    try:
        # -- wait for the ephemeral bind ------------------------------
        url = None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = server.stdout.readline()
            if not line:
                break
            server_log.append(line)
            match = LISTENING.search(line)
            if match:
                url = match.group(1)
                break
        if url is None:
            raise AssertionError(
                "server never reported its port:\n" + "".join(server_log)
            )
        print(f"serve-smoke: server up at {url}")

        # -- stage the queue deterministically ------------------------
        client(env, url, "pause")
        first, coalesced = submit(env, url, "--events")
        assert not coalesced, "first submission must not coalesce"
        second, coalesced = submit(env, url, "--events")
        assert coalesced, "identical submission must coalesce"
        assert second == first, f"coalesced ids differ: {first} vs {second}"
        distinct, coalesced = submit(env, url, "--scheme", "gto")
        assert not coalesced and distinct != first
        client(env, url, "resume")
        print(f"serve-smoke: coalesced pair {first}, distinct {distinct}")

        # -- SSE feed carries obs progress ----------------------------
        feed = client(env, url, "watch", first)
        kinds = re.findall(r"^  \[(\w+)\]", feed, re.MULTILINE)
        assert kinds.count("started") == 1, \
            f"expected exactly one started record, got {kinds}"
        assert "obs" in kinds and "obs_summary" in kinds, \
            f"SSE feed missing obs records: {kinds}\n{feed}"
        assert kinds[-1] == "complete", f"feed did not terminate: {kinds}"
        print(f"serve-smoke: SSE feed ok ({len(kinds)} records, "
              f"{kinds.count('obs')} obs snapshots)")

        api = ServeClient(url)
        assert api.wait(first, timeout=180)["state"] == "done"
        assert api.wait(distinct, timeout=180)["state"] == "done"

        # -- exactly two executions for three submissions -------------
        counters = json.loads(client(env, url, "stats"))["counters"]
        assert counters["submitted"] == 2, counters
        assert counters["coalesced"] == 1, counters
        assert counters["executions"] == 2, counters
        assert counters["done"] == 2, counters
        print(f"serve-smoke: counters ok {counters}")

        # -- a finished cell comes back at the cost of a lookup --------
        spec = {"kind": "run", "workload": "synthetic_imbalance",
                "scheme": "gto", "scale": float(SCALE)}
        _, answer = post_job(url, spec)
        assert answer["job"]["reused_from"] == distinct, answer["job"]
        assert answer.get("payload") == api.result(distinct)["payload"], \
            f"the repeat's submit response carries no payload: {sorted(answer)}"
        warm = statistics.median(warm_round_trip(api, spec, distinct)
                                 for _ in range(5))
        assert warm < WARM_CEILING, \
            f"warm round trip {1e3 * warm:.1f} ms >= {1e3 * WARM_CEILING:.0f} ms"
        print(f"serve-smoke: warm round trip {1e3 * warm:.1f} ms")

        # -- admission checks value types -----------------------------
        submitted = json.loads(client(env, url, "stats"))["counters"]["submitted"]
        for bad in ({"fermi": "no"}, {"scale": float("nan")}):
            status, answer = post_job(url, {**spec, **bad})
            assert status == 400, f"{bad} was admitted ({status}): {answer}"
        counters = json.loads(client(env, url, "stats"))["counters"]
        assert counters["submitted"] == submitted, counters
        print("serve-smoke: a non-boolean fermi and a NaN scale get 400")

        # -- graceful drain -------------------------------------------
        client(env, url, "shutdown")
        remainder, _ = server.communicate(timeout=120)
        server_log.append(remainder)
        assert server.returncode == 0, \
            f"server exited {server.returncode}:\n{''.join(server_log)}"
        assert "drained and stopped" in remainder, remainder
        print("serve-smoke: drained shutdown ok")
        print("serve-smoke: PASS")
        return 0
    except AssertionError as exc:
        print(f"serve-smoke: FAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
