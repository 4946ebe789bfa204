"""End-to-end tests for the simulation service over real sockets.

Each test starts a :class:`repro.serve.ServerThread` — a genuine
``repro serve`` instance with an ephemeral port and real executor
processes — and talks to it through :class:`repro.serve.ServeClient`,
exactly as the ``repro client`` CLI does.  Determinism comes from the
``/queue/pause`` + ``/queue/resume`` endpoints: tests stage the queue
while dispatch is held, then release it, so no assertion depends on
winning a race against the scheduler.
"""

import pytest

from repro.serve import ServeClient, ServeClientError, ServerConfig, ServerThread

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
        with pytest.raises(ServeClientError) as exc:
            client.submit({"kind": "run", "workload": "bfs",
                           "device": {"backend": "vector"}})
        assert exc.value.status == 400
        assert "unsupported device knob(s): backend" in str(exc.value)
        with pytest.raises(ServeClientError) as exc:
            client.submit({"kind": "run", "workload": "bfs",
                           "device": {"shards": 2}})
        assert exc.value.status == 400
        assert "unsupported device knob(s): shards" in str(exc.value)
        assert "supported: frontend, sampling" in str(exc.value)

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

    def test_drain_releases_paused_queue(self, serve_factory):
        handle = serve_factory()
        client = ServeClient(handle.base_url)
        client.pause()
        job, _ = client.submit(spec())
        client.shutdown(drain=True)
        handle._thread.join(timeout=120)
        assert handle.server.queue.jobs[job["id"]].state == "done"
