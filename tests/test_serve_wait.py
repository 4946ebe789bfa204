"""Completion as an event: ``GET /jobs/{id}?wait=S`` and ``ServeClient.wait``.

Real servers on ephemeral ports, as in ``test_serve_http.py``.  Nothing
here asserts a wall-clock threshold except the two tests that say so;
"eventually" is a deadline loop on server state (:func:`until`), and every
join carries a timeout followed by an assertion that the work finished.
"""

import http.client
import os
import signal
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.serve import ServeClient, ServeClientError, ServerConfig, ServerThread
from repro.serve import worker as serve_worker

SCALE = 0.25
RUN_SPEC = {"kind": "run", "workload": "synthetic_imbalance",
            "scheme": "rr", "scale": SCALE}
#: The cell the ``stuck_worker`` fixture makes a worker sit on.
STUCK_SPEC = dict(RUN_SPEC, scheme="gto")


@pytest.fixture
def serve_factory():
    handles = []

    def factory(**overrides):
        overrides.setdefault("port", 0)
        overrides.setdefault("workers", 1)
        handle = ServerThread(ServerConfig(**overrides)).start()
        handles.append(handle)
        return handle

    yield factory
    for handle in handles:
        try:
            handle.stop(drain=False, timeout=30)
        except Exception:
            pass  # already shut down by the test


def until(condition, timeout=30.0):
    """Spin until ``condition()`` holds; fail the test if it never does."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def holding(handle) -> int:
    with ServeClient(handle.base_url) as client:
        return client.stats()["holding"]


class Holder(threading.Thread):
    """``client.wait`` on another thread; ``outcome()`` joins and returns."""

    def __init__(self, url, job_id, timeout=60.0):
        super().__init__(daemon=True)
        self.client = ServeClient(url)
        self.job_id, self.timeout = job_id, timeout
        self.job = self.error = None
        self.start()

    def run(self):
        try:
            self.job = self.client.wait(self.job_id, timeout=self.timeout)
        except Exception as exc:
            self.error = exc
        finally:
            self.client.close()

    def outcome(self):
        self.join(60)
        assert not self.is_alive(), "held wait was never released"
        assert self.error is None, self.error
        return self.job


def raw_get(handle, target):
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, response.read().decode()
    finally:
        conn.close()


class TestOneRequest:
    def test_finishing_inside_one_hold_is_one_status_request(self, serve_factory):
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        job, _ = client.submit(RUN_SPEC)
        before = handle.server.requests
        assert client.wait(job["id"], timeout=120)["state"] == "done"
        assert handle.server.requests - before == 1

    def test_warm_round_trip_is_one_request(self, serve_factory):
        # The answer rides the submit response; wait and result read it.
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        first, _ = client.submit(RUN_SPEC)
        client.wait(first["id"], timeout=120)
        before = handle.server.requests
        job, coalesced = client.submit(RUN_SPEC)
        assert not coalesced
        assert client.wait(job["id"], timeout=120)["state"] == "done"
        client.result(job["id"])
        assert handle.server.requests - before == 1

    def test_poll_parameter_is_gone(self, serve_factory):
        client = ServeClient(serve_factory().base_url)
        with pytest.raises(TypeError):
            client.wait("j000001-deadbeef", timeout=1, poll=0.1)

    def test_monitor_adds_no_poll_interval(self, serve_factory):
        """``finished - started`` of a cache hit is the worker's few
        milliseconds, not the next tick of the progress tail.  With one
        finished job kept, running the other cell evicts the first, so its
        repeat goes through a worker and a monitor instead of being reused
        at admission."""
        poll = 2.0
        client = ServeClient(serve_factory(progress_poll=poll,
                                           keep_finished=1).base_url)
        for cell in (RUN_SPEC, dict(RUN_SPEC, scheme="gto")):
            cold, _ = client.submit(cell)
            client.wait(cold["id"], timeout=120)
        job, _ = client.submit(RUN_SPEC)
        done = client.wait(job["id"], timeout=120)
        assert done["state"] == "done" and done["reused_from"] is None
        assert done["finished"] - done["started"] < poll
        assert done["exec_s"] == done["finished"] - done["started"]


class TestHoldExpiry:
    def test_hold_times_out_with_current_state(self, serve_factory):
        """Wall-clock bounds stated by the issue: ~0.2 s, not at once and
        not never."""
        client = ServeClient(serve_factory().base_url)
        client.pause()
        job, _ = client.submit(RUN_SPEC)
        started = time.monotonic()
        held = client.status(job["id"], wait=0.2)
        elapsed = time.monotonic() - started
        assert held["state"] == "queued"
        assert 0.15 <= elapsed < 5.0

    def test_wait_rearms_until_its_own_deadline(self, serve_factory, monkeypatch):
        monkeypatch.setattr("repro.serve.client.MAX_HOLD", 0.05)
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        client.pause()
        job, _ = client.submit(RUN_SPEC)
        before = handle.server.requests
        with pytest.raises(ServeClientError, match="timed out after 0.5s"):
            client.wait(job["id"], timeout=0.5)
        assert handle.server.requests - before >= 2      # one hold, re-armed
        assert holding(handle) == 0

    def test_oversized_hold_is_clamped(self, serve_factory, monkeypatch):
        monkeypatch.setattr("repro.serve.server.MAX_HOLD", 0.1)
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        client.pause()
        job, _ = client.submit(RUN_SPEC)
        status, body = raw_get(handle, f"/jobs/{job['id']}?wait=1e9")
        assert status == 200 and '"state": "queued"' in body


class TestRelease:
    def test_delete_releases_with_cancelled(self, serve_factory):
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        client.pause()
        job, _ = client.submit(RUN_SPEC)
        holder = Holder(handle.base_url, job["id"])
        until(lambda: holding(handle) == 1)
        client.cancel(job["id"])
        assert holder.outcome()["state"] == "cancelled"
        assert holding(handle) == 0

    def test_shutdown_without_drain_releases_with_cancelled(self, serve_factory):
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        client.pause()
        job, _ = client.submit(RUN_SPEC)
        holder = Holder(handle.base_url, job["id"])
        until(lambda: holding(handle) == 1)
        handle.stop(drain=False, timeout=60)
        assert holder.outcome()["state"] == "cancelled"

    def test_failed_job_releases_with_failed(self, serve_factory, monkeypatch):
        def boom(spec, writer):
            raise ValueError("boom")

        # Pool workers fork from this process, so they inherit the patch.
        monkeypatch.setattr(serve_worker, "_run_job", boom)
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        client.pause()
        job, _ = client.submit(RUN_SPEC)
        holder = Holder(handle.base_url, job["id"])
        until(lambda: holding(handle) == 1)
        client.resume()
        failed = holder.outcome()
        assert failed["state"] == "failed"
        assert failed["error"] == "ValueError: boom"

    def test_one_completion_releases_every_holder(self, serve_factory):
        handle = serve_factory()
        alice = ServeClient(handle.base_url, tenant="alice")
        bob = ServeClient(handle.base_url, tenant="bob")
        alice.pause()
        job, _ = alice.submit(RUN_SPEC)
        joined, coalesced = bob.submit(RUN_SPEC)
        assert coalesced and joined["id"] == job["id"]
        holders = [Holder(handle.base_url, job["id"]) for _ in range(2)]
        until(lambda: holding(handle) == 2)
        alice.resume()
        assert [h.outcome()["state"] for h in holders] == ["done", "done"]
        stats = alice.stats()
        assert stats["counters"]["executions"] == 1
        assert stats["holding"] == 0

    def test_disconnect_mid_hold_leaves_nothing_held(self, serve_factory):
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        client.pause()
        job, _ = client.submit(RUN_SPEC)
        sock = socket.create_connection(("127.0.0.1", handle.port), timeout=30)
        try:
            sock.sendall(f"GET /jobs/{job['id']}?wait=20 HTTP/1.1\r\n\r\n"
                         .encode("latin-1"))
            until(lambda: holding(handle) == 1)
        finally:
            sock.close()
        until(lambda: holding(handle) == 0, timeout=10.0)  # << the 20 s hold
        assert client.status(job["id"])["state"] == "queued"

    def test_bytes_during_a_hold_close_the_connection(self, serve_factory):
        """A held request's connection carries nothing else: a byte of a
        pipelined request cannot be put back, so the server hangs up."""
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        client.pause()
        job, _ = client.submit(RUN_SPEC)
        with socket.create_connection(("127.0.0.1", handle.port),
                                      timeout=10) as sock:
            sock.sendall(f"GET /jobs/{job['id']}?wait=20 HTTP/1.1\r\n\r\n"
                         .encode("latin-1"))
            until(lambda: holding(handle) == 1)
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert sock.recv(65536) == b""          # closed, unanswered
        assert holding(handle) == 0


class TestQueryStrings:
    @pytest.mark.parametrize("value", ["abc", "-1", "nan", ""])
    def test_bad_wait_is_400_naming_it(self, serve_factory, value):
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        client.pause()
        job, _ = client.submit(RUN_SPEC)
        status, body = raw_get(handle, f"/jobs/{job['id']}?wait={value}")
        assert status == 400
        assert "'wait'" in body

    def test_unknown_key_is_400_naming_it(self, serve_factory):
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        client.pause()
        job, _ = client.submit(RUN_SPEC)
        for target in (f"/jobs/{job['id']}?hold=1", "/stats?wait=1",
                       f"/jobs/{job['id']}/result?wait=1"):
            status, body = raw_get(handle, target)
            assert status == 400, target
            assert "unknown query parameter" in body
        assert "hold" in raw_get(handle, f"/jobs/{job['id']}?hold=1")[1]

    def test_wait_on_terminal_and_evicted_jobs_returns_at_once(self, serve_factory):
        handle = serve_factory(keep_finished=1)
        client = ServeClient(handle.base_url)
        old, _ = client.submit(RUN_SPEC)
        client.wait(old["id"], timeout=120)
        new, _ = client.submit(dict(RUN_SPEC, scheme="gto"))
        client.wait(new["id"], timeout=120)
        before = handle.server.requests
        assert client.status(new["id"], wait=20)["state"] == "done"
        with pytest.raises(ServeClientError) as exc:
            client.status(old["id"], wait=20)       # evicted by keep_finished
        assert exc.value.status == 404
        assert handle.server.requests - before == 2
        assert holding(handle) == 0


class TestWhereTheTimeWent:
    def test_job_record_complete_record_and_stats(self, serve_factory):
        handle = serve_factory()
        alice = ServeClient(handle.base_url, tenant="alice")
        bob = ServeClient(handle.base_url, tenant="bob")
        alice.pause()
        job, _ = alice.submit(RUN_SPEC)
        assert job["queue_wait_s"] is None and job["exec_s"] is None
        assert job["fan_in"] == 1
        bob.submit(RUN_SPEC)
        alice.resume()
        done = alice.wait(job["id"], timeout=120)
        assert done["fan_in"] == 2 and done["waiters"] == 1
        assert done["queue_wait_s"] == done["started"] - done["created"]
        assert done["exec_s"] == done["finished"] - done["started"]

        complete = list(alice.watch(job["id"], timeout=30))[-1]
        assert complete["kind"] == "complete" and complete["state"] == "done"
        for key in ("queue_wait_s", "exec_s", "fan_in"):
            assert complete[key] == done[key]

        stats = alice.stats()
        for key in ("queue_wait_s", "exec_s"):
            block = stats["latency"][key]
            assert block["n"] == 1
            assert block["p50"] == block["p90"] == block["max"] == done[key]
        assert stats["holding"] == 0
        assert stats["server"]["requests"] > 0

    def test_latency_block_before_any_job(self, serve_factory):
        stats = ServeClient(serve_factory().base_url).stats()
        assert stats["latency"]["exec_s"] == {
            "n": 0, "p50": None, "p90": None, "max": None}

    def test_cli_submit_wait_prints_the_split(self, serve_factory, capsys):
        handle = serve_factory()
        assert main(["client", "--server", handle.base_url, "submit",
                     "--workload", "synthetic_imbalance", "--scale",
                     str(SCALE), "--wait"]) == 0
        out = capsys.readouterr().out
        last = out.strip().splitlines()[-1]
        assert last.startswith("queued ") and ", ran " in last
        assert ", total " in last and last.endswith(" ms")


@pytest.fixture
def stuck_worker(monkeypatch):
    """Workers (forked from this process) sit on ``STUCK_SPEC`` until killed."""
    real = serve_worker._run_job

    def run_or_hang(spec, writer):
        if spec.schemes == ("gto",):
            time.sleep(600)
        return real(spec, writer)

    monkeypatch.setattr(serve_worker, "_run_job", run_or_hang)


def started_pid(client, job_id):
    for record in client.watch(job_id, timeout=60):
        if record["kind"] == "started":
            return record["pid"]
    raise AssertionError("no started record")


class TestWorkerCrash:
    def test_killed_worker_fails_its_job_and_the_next_one_runs(
            self, serve_factory, stuck_worker):
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        victim, _ = client.submit(STUCK_SPEC)
        holder = Holder(handle.base_url, victim["id"])
        pid = started_pid(client, victim["id"])
        until(lambda: holding(handle) == 1)
        os.kill(pid, signal.SIGKILL)

        failed = holder.outcome()
        assert failed["state"] == "failed"
        assert failed["error"].startswith("WorkerCrashError: ")
        assert f"worker process {pid}" in failed["error"]
        assert victim["id"] in failed["error"]

        # The pool was rebuilt and the scheduler task is alive.
        after, _ = client.submit(RUN_SPEC)
        assert client.wait(after["id"], timeout=60)["state"] == "done"
        stats = client.stats()
        assert stats["queued"] == 0 and stats["running"] == 0
        assert stats["counters"]["failed"] == 1
        assert stats["counters"]["done"] == 1

    def test_worker_killed_while_idle(self, serve_factory):
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        first, _ = client.submit(RUN_SPEC)
        assert client.wait(first["id"], timeout=120)["state"] == "done"
        os.kill(started_pid(client, first["id"]), signal.SIGKILL)
        # Whether or not the pool has noticed yet, no submission hangs; one
        # that raced the notice may be the job the crash is charged to.
        states = []
        for scheme in ("gto", "cawa"):
            job, _ = client.submit(dict(RUN_SPEC, scheme=scheme))
            final = client.wait(job["id"], timeout=60)
            assert (final["state"] == "done"
                    or final["error"].startswith("WorkerCrashError: ")), final
            states.append(final["state"])
        assert states[-1] == "done"

    def test_every_job_of_a_broken_pool_is_failed_once(
            self, serve_factory, stuck_worker):
        handle = serve_factory(workers=2)
        client = ServeClient(handle.base_url)
        a, _ = client.submit(STUCK_SPEC)
        b, _ = client.submit(dict(STUCK_SPEC, scale=SCALE / 2))
        pid = started_pid(client, a["id"])
        started_pid(client, b["id"])
        executor = handle.server._executor
        os.kill(pid, signal.SIGKILL)
        for job in (a, b):
            final = client.wait(job["id"], timeout=60)
            assert final["error"].startswith("WorkerCrashError: ")
        assert handle.server._executor is not executor
        after, _ = client.submit(RUN_SPEC)
        assert client.wait(after["id"], timeout=60)["state"] == "done"
