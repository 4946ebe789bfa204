"""End-to-end tests for the simulation service over real sockets.

Each test starts a :class:`repro.serve.ServerThread` — a genuine
``repro serve`` instance with an ephemeral port and real executor
processes — and talks to it through :class:`repro.serve.ServeClient`,
exactly as the ``repro client`` CLI does.  Determinism comes from the
``/queue/pause`` + ``/queue/resume`` endpoints: tests stage the queue
while dispatch is held, then release it, so no assertion depends on
winning a race against the scheduler.
"""

import asyncio
import json
import logging
import re
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.serve import ServeClient, ServeClientError, ServerConfig, ServerThread
from repro.serve.server import ReproServer

SCALE = 0.25  # keep each simulated job well under a second

RUN_SPEC = {"kind": "run", "workload": "synthetic_imbalance",
            "scheme": "rr", "scale": SCALE}


@pytest.fixture
def serve_factory():
    """Start real servers on ephemeral ports; stop them all on teardown."""
    handles = []

    def factory(**overrides):
        overrides.setdefault("port", 0)
        overrides.setdefault("workers", 1)
        overrides.setdefault("progress_poll", 0.02)
        handle = ServerThread(ServerConfig(**overrides)).start()
        handles.append(handle)
        return handle

    yield factory
    for handle in handles:
        try:
            handle.stop(drain=False)
        except Exception:
            pass  # already shut down by the test


def spec(**overrides):
    payload = dict(RUN_SPEC)
    payload.update(overrides)
    return payload


class TestBasicApi:
    def test_submit_wait_result(self, serve_factory):
        client = ServeClient(serve_factory().base_url, tenant="t1")
        assert client.healthz() == {"ok": True}

        job, coalesced = client.submit(spec())
        assert not coalesced
        done = client.wait(job["id"], timeout=120)
        assert done["state"] == "done"

        data = client.result(job["id"])
        payload = data["payload"]
        assert payload["kind"] == "run"
        assert payload["workload"] == "synthetic_imbalance"
        assert payload["result"]["cycles"] > 0
        assert "cycles" in payload["summary"]

    def test_result_conflict_until_done(self, serve_factory):
        client = ServeClient(serve_factory().base_url)
        client.pause()
        job, _ = client.submit(spec())
        with pytest.raises(ServeClientError) as exc:
            client.result(job["id"])
        assert exc.value.status == 409

    def test_unknown_job_404(self, serve_factory):
        client = ServeClient(serve_factory().base_url)
        with pytest.raises(ServeClientError) as exc:
            client.status("j999999-deadbeef")
        assert exc.value.status == 404

    def test_bad_payload_400(self, serve_factory):
        client = ServeClient(serve_factory().base_url)
        with pytest.raises(ServeClientError) as exc:
            client.submit({"kind": "run", "workload": "no_such_workload"})
        assert exc.value.status == 400
        with pytest.raises(ServeClientError) as exc:
            client.submit({"kind": "run", "workload": "bfs", "bogus": 1})
        assert exc.value.status == 400
        # A value of the wrong type is refused, not coerced.
        for bad in ({"fermi": "no"}, {"scale": float("nan")},
                    {"scale": float("inf")}, {"scale": True}, {"events": 1}):
            with pytest.raises(ServeClientError) as exc:
                client.submit({"kind": "run", "workload": "bfs", **bad})
            assert exc.value.status == 400
            assert next(iter(bad)) in str(exc.value)
        with pytest.raises(ServeClientError) as exc:
            client.submit({"kind": "figure", "figure": True})
        assert exc.value.status == 400
        for knob, value in (("backend", "vector"), ("shards", 2),
                            ("frontend", "execute"), ("sampling", "blocks:0.25")):
            with pytest.raises(ServeClientError) as exc:
                client.submit({"kind": "run", "workload": "bfs",
                               "device": {knob: value}})
            assert exc.value.status == 400
            assert "the 'device' field was removed" in str(exc.value)

    def test_cancel_queued_job(self, serve_factory):
        client = ServeClient(serve_factory().base_url)
        client.pause()
        job, _ = client.submit(spec())
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        # The SSE stream of a cancelled job terminates immediately.
        kinds = [r["kind"] for r in client.watch(job["id"], timeout=30)]
        assert kinds[-1] == "complete"

    def test_stats_shape(self, serve_factory):
        client = ServeClient(serve_factory().base_url)
        stats = client.stats()
        assert stats["server"]["workers"] == 1
        assert "results" in stats["cache"]
        assert stats["counters"]["submitted"] == 0


class TestCoalescing:
    def test_identical_posts_share_one_execution(self, serve_factory):
        """The tentpole guarantee: N concurrent identical submissions run
        the simulation exactly once, and every subscriber receives the
        identical result payload plus the obs progress records."""
        handle = serve_factory(workers=2)
        clients = [ServeClient(handle.base_url, tenant=f"tenant{i}")
                   for i in range(3)]
        # events=True promises obs records in the SSE feed and is part of
        # the coalescing fingerprint, so all three join the same stream.
        events_spec = spec(events=True)

        clients[0].pause()
        submissions = [c.submit(events_spec) for c in clients]
        ids = {job["id"] for job, _ in submissions}
        assert len(ids) == 1
        assert [coalesced for _, coalesced in submissions] == [
            False, True, True]
        (job_id,) = ids

        # A distinct job (different scheme) must NOT coalesce.
        other, other_coalesced = clients[0].submit(spec(scheme="gto"))
        assert not other_coalesced and other["id"] != job_id

        clients[0].resume()
        streams = [list(c.watch(job_id, timeout=120)) for c in clients]
        clients[0].wait(other["id"], timeout=120)

        # Exactly one worker picked the coalesced job up...
        for records in streams:
            kinds = [r["kind"] for r in records]
            assert kinds.count("started") == 1
            assert "obs" in kinds and "obs_summary" in kinds
            assert kinds[-1] == "complete"
        # ...and every subscriber sees the same record sequence.
        assert streams[0] == streams[1] == streams[2]

        payloads = [c.result(job_id)["payload"] for c in clients]
        assert payloads[0] == payloads[1] == payloads[2]
        assert payloads[0]["result"]["cycles"] > 0

        counters = clients[0].stats()["counters"]
        assert counters["submitted"] == 2       # coalesced job + distinct job
        assert counters["coalesced"] == 2       # two joins
        assert counters["executions"] == 2      # one each, never three

        status = clients[0].status(job_id)
        assert status["waiters"] == 2

    def test_no_coalesce_across_different_events_flag(self, serve_factory):
        client = ServeClient(serve_factory().base_url)
        client.pause()
        a, _ = client.submit(spec(events=True))
        b, coalesced = client.submit(spec(events=False))
        assert not coalesced and a["id"] != b["id"]


class TestPriorityAndQuotas:
    def test_interactive_preempts_batch(self, serve_factory):
        """With one worker and dispatch held, a later interactive job must
        run before an earlier batch job."""
        client = ServeClient(serve_factory(workers=1).base_url)
        client.pause()
        batch, _ = client.submit(spec(scheme="gto", priority="batch"))
        inter, _ = client.submit(spec(priority="interactive"))
        client.resume()
        client.wait(batch["id"], timeout=120)
        done_inter = client.status(inter["id"])
        done_batch = client.status(batch["id"])
        assert done_inter["state"] == done_batch["state"] == "done"
        assert done_inter["started"] < done_batch["started"]

    def test_tenant_quota_429(self, serve_factory):
        handle = serve_factory(tenant_quota=1)
        alice = ServeClient(handle.base_url, tenant="alice")
        bob = ServeClient(handle.base_url, tenant="bob")
        alice.pause()
        alice.submit(spec())
        with pytest.raises(ServeClientError) as exc:
            alice.submit(spec(scheme="gto"))
        assert exc.value.status == 429
        # Other tenants are unaffected, and a coalesced join is free.
        bob.submit(spec(scheme="gto"))
        _, coalesced = alice.submit(spec())
        assert coalesced

    def test_queue_full_503_with_retry_after(self, serve_factory):
        handle = serve_factory(max_queue=2, tenant_quota=100)
        client = ServeClient(handle.base_url)
        client.pause()
        client.submit(spec())
        client.submit(spec(scheme="gto"))
        with pytest.raises(ServeClientError) as exc:
            client.submit(spec(scheme="cawa"))
        assert exc.value.status == 503


class TestShutdown:
    def test_graceful_drain_finishes_jobs(self, serve_factory):
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        job, _ = client.submit(spec())
        ack = client.shutdown(drain=True)
        assert ack["shutting_down"] and ack["drain"]
        handle._thread.join(timeout=120)
        assert not handle._thread.is_alive()
        # The submitted job completed (was not dropped) before exit.
        drained = handle.server.queue.jobs[job["id"]]
        assert drained.state == "done"
        assert drained.result["result"]["cycles"] > 0

    @pytest.mark.parametrize("body", [[1], "x", {"drain": "false"},
                                      {"drain": 0}])
    def test_bad_body_is_a_400_and_the_server_keeps_running(
            self, serve_factory, body):
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        status, data = client._request("POST", "/shutdown", payload=body)
        assert status == 400, data
        assert not handle.server.draining
        assert client.healthz() == {"ok": True}
        job, _ = client.submit(spec())
        assert client.wait(job["id"], timeout=120)["state"] == "done"

    def test_drain_releases_paused_queue(self, serve_factory):
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        client.pause()
        job, _ = client.submit(spec())
        client.shutdown(drain=True)
        handle._thread.join(timeout=120)
        assert handle.server.queue.jobs[job["id"]].state == "done"


def until(condition, timeout=30.0):
    """Spin until ``condition()`` holds; fail the test if it never does."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def exchange(handle, raw: bytes) -> bytes:
    """Send ``raw`` on a fresh socket; all the server sends until it closes."""
    with socket.create_connection(("127.0.0.1", handle.port),
                                  timeout=10) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestReuse:
    def test_repeat_of_a_finished_job_is_answered_at_admission(
            self, serve_factory, capsys):
        handle = serve_factory()
        alice = ServeClient(handle.base_url, tenant="alice")
        first, _ = alice.submit(spec())
        assert alice.wait(first["id"], timeout=120)["state"] == "done"

        bob = ServeClient(handle.base_url, tenant="bob")
        job, coalesced = bob.submit(spec())
        assert not coalesced and job["id"] != first["id"]
        assert job["state"] == "done" and job["reused_from"] == first["id"]
        assert job["started"] == job["finished"] and job["exec_s"] == 0.0
        assert not handle.server._progress_path(job["id"]).exists()

        twin = alice.result(first["id"])["payload"]
        reused = bob.result(job["id"])["payload"]
        assert (json.dumps(reused, sort_keys=True)
                == json.dumps(twin, sort_keys=True))

        records = list(bob.watch(job["id"], timeout=30))
        assert [r["kind"] for r in records] == ["reused", "complete"]
        assert records[0]["reused_from"] == first["id"]

        counters = bob.stats()["counters"]
        assert (counters["submitted"], counters["executions"],
                counters["done"], counters["reused"],
                counters["coalesced"]) == (2, 2, 2, 1, 0)

        assert main(["client", "--server", handle.base_url, "status",
                     job["id"]]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["reused_from"] == first["id"]

    def test_warm_repeat_is_one_round_trip(self, serve_factory):
        handle = serve_factory()
        server = handle.server
        first, _ = ServeClient(handle.base_url).submit(spec())
        ServeClient(handle.base_url).wait(first["id"], timeout=120)

        before = server.requests, server.connections
        with ServeClient(handle.base_url) as bob:
            job, coalesced = bob.submit(spec())
            held = (bob.wait(job["id"], timeout=60), bob.status(job["id"]),
                    bob.result(job["id"]))
        assert (server.requests - before[0],
                server.connections - before[1]) == (1, 1)
        assert not coalesced and job["reused_from"] == first["id"]

        # What the client answered itself is what the server says.
        carol = ServeClient(handle.base_url)
        asked = (carol.wait(job["id"], timeout=60), carol.status(job["id"]),
                 carol.result(job["id"]))
        for mine, theirs in zip(held, asked):
            assert (json.dumps(mine, sort_keys=True)
                    == json.dumps(theirs, sort_keys=True))

    def test_cold_job_and_coalesced_join_still_ask(self, serve_factory):
        handle = serve_factory()
        server = handle.server
        admin = ServeClient(handle.base_url)
        admin.pause()
        cold, joiner = (ServeClient(handle.base_url) for _ in range(2))
        before = server.requests
        job, _ = cold.submit(spec())
        joined, coalesced = joiner.submit(spec())
        assert coalesced and joined["id"] == job["id"]
        assert server.requests - before == 2
        admin.resume()
        for client in (cold, joiner):
            before = server.requests
            assert client.wait(job["id"], timeout=120)["state"] == "done"
            client.result(job["id"])
            assert server.requests - before == 2   # 3 with its submit

    def test_held_answer_is_only_the_latest_submissions(self, serve_factory):
        handle = serve_factory()
        server = handle.server
        client = ServeClient(handle.base_url)
        first, _ = client.submit(spec())
        client.wait(first["id"], timeout=120)
        repeat, _ = client.submit(spec())
        assert repeat["reused_from"] == first["id"]

        before = server.requests
        assert client.wait(first["id"], timeout=60)["state"] == "done"
        assert client.result(first["id"])["job"]["id"] == first["id"]
        assert server.requests - before == 2   # any other id still asks

        with pytest.raises(ServeClientError):
            client.submit({"kind": "run", "workload": "no_such_workload"})
        before = server.requests
        assert client.status(repeat["id"])["state"] == "done"
        assert server.requests - before == 1   # the next submit dropped it

    def test_events_job_is_never_reused(self, serve_factory):
        client = ServeClient(serve_factory().base_url)
        first, _ = client.submit(spec(events=True))
        client.wait(first["id"], timeout=120)
        again, _ = client.submit(spec(events=True))
        assert again["reused_from"] is None and again["state"] != "done"

    def test_evicted_twin_reexecutes_in_the_worker(self, serve_factory):
        handle = serve_factory(keep_finished=0)
        client = ServeClient(handle.base_url)
        client.submit(spec())
        until(lambda: client.stats()["counters"]["done"] == 1)
        again, _ = client.submit(spec())
        assert again["reused_from"] is None and again["state"] != "done"
        until(lambda: client.stats()["counters"]["done"] == 2)
        counters = client.stats()["counters"]
        assert counters["executions"] == 2 and counters["reused"] == 0

    def test_tenant_at_quota_still_gets_a_reused_answer(self, serve_factory):
        alice = ServeClient(serve_factory(tenant_quota=1).base_url,
                            tenant="alice")
        first, _ = alice.submit(spec())
        alice.wait(first["id"], timeout=120)
        alice.pause()
        alice.submit(spec(scheme="gto"))   # in flight: alice is at the quota
        job, _ = alice.submit(spec())
        assert job["state"] == "done" and job["reused_from"] == first["id"]


class TestKeepAlive:
    def test_client_requests_share_one_connection(self, serve_factory):
        handle = serve_factory()
        with ServeClient(handle.base_url) as client:
            for _ in range(3):
                client.healthz()
            server = client.stats()["server"]
        assert (server["connections"], server["requests"]) == (1, 4)

    def test_three_requests_over_one_connection_answered_in_order(
            self, serve_factory):
        handle = serve_factory()
        data = exchange(handle, b"GET /healthz HTTP/1.1\r\n\r\n"
                                b"GET /jobs/nope HTTP/1.1\r\n\r\n"
                                b"GET /stats?bogus=1 HTTP/1.1\r\n"
                                b"Connection: close\r\n\r\n")
        statuses = re.findall(rb"HTTP/1\.1 (\d{3}) ", data)
        assert statuses == [b"200", b"404", b"400"]
        # Only the last answer says the server closes after it.
        assert data.count(b"Connection: close") == 1
        assert handle.server.connections == 1

    def test_http_10_request_is_answered_and_closed(self, serve_factory):
        data = exchange(serve_factory(), b"GET /healthz HTTP/1.0\r\n\r\n")
        assert data.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in data

    def test_sse_route_closes_its_connection(self, serve_factory):
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        client.pause()
        job, _ = client.submit(spec())
        client.cancel(job["id"])
        data = exchange(handle, f"GET /jobs/{job['id']}/events HTTP/1.1"
                                f"\r\n\r\n".encode("latin-1"))
        assert b"text/event-stream" in data and b'"complete"' in data

    def test_client_reconnects_after_the_server_closes_an_idle_connection(
            self, serve_factory, monkeypatch):
        monkeypatch.setattr("repro.serve.server._READ_TIMEOUT", 0.1)
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        client.healthz()
        until(lambda: not handle.server._connections)   # idled out
        assert client.healthz() == {"ok": True}
        assert handle.server.connections == 2

    def test_stop_with_idle_kept_alive_clients_is_prompt(
            self, serve_factory, caplog):
        import gc

        handle = serve_factory()
        clients = [ServeClient(handle.base_url) for _ in range(4)]
        for client in clients:
            client.healthz()
        until(lambda: len(handle.server._idle) == 4)
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            started = time.monotonic()
            handle.stop()
            elapsed = time.monotonic() - started
            gc.collect()
        assert elapsed < 1.0
        assert not handle._thread.is_alive()
        assert not handle.server._connections
        assert not [r for r in caplog.records if "pending" in r.getMessage()]

    def test_answer_under_way_at_shutdown_is_its_connections_last(
            self, serve_factory, monkeypatch):
        """A kept-alive answer still being written when shutdown closes the
        idle connections ends its connection, instead of waiting for a next
        request until the idle limit."""
        real_send = ReproServer._send_json
        sending = threading.Event()

        async def send_during_shutdown(server, writer, *args, **kwargs):
            sending.set()
            while not server.draining:
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.05)   # shutdown has closed the idle ones
            await real_send(server, writer, *args, **kwargs)

        monkeypatch.setattr(ReproServer, "_send_json", send_during_shutdown)
        handle = serve_factory()
        answers = []
        with ServeClient(handle.base_url) as client:
            caller = threading.Thread(
                target=lambda: answers.append(client.healthz()))
            caller.start()
            assert sending.wait(30)
            started = time.monotonic()
            handle.stop()
            elapsed = time.monotonic() - started
            caller.join(30)
        assert answers == [{"ok": True}]
        assert elapsed < 1.0
        assert not handle.server._connections


class TestMalformedHeads:
    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_bad_content_length_is_400_naming_it(self, serve_factory, value):
        data = exchange(serve_factory(),
                        f"POST /jobs HTTP/1.1\r\nContent-Length: {value}"
                        f"\r\n\r\n".encode("latin-1"))
        assert data.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in data
        assert b"Content-Length" in data.split(b"\r\n\r\n", 1)[1]

    def test_oversized_head_is_431(self, serve_factory):
        data = exchange(serve_factory(),
                        b"GET /healthz HTTP/1.1\r\nX-Padding: "
                        + b"a" * 70_000 + b"\r\n\r\n")
        assert data.startswith(b"HTTP/1.1 431 Request Header Fields Too Large")
        assert b"Connection: close" in data

    def test_bare_lf_head_goes_unanswered_until_the_idle_limit(
            self, serve_factory, monkeypatch):
        """Header lines must end in CRLF (docs/serving.md, "Connections"):
        a head ending in bare LFs never completes, so it is not answered."""
        monkeypatch.setattr("repro.serve.server._READ_TIMEOUT", 0.2)
        handle = serve_factory()
        assert exchange(handle, b"GET /healthz HTTP/1.1\n\n") == b""
        assert handle.server.requests == 0
