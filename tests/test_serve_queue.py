"""Unit tests for the serve job model: spec validation, priority queue,
request coalescing, reuse of finished answers, quotas, and back-pressure.

Everything here is pure data-structure code — no sockets, no asyncio, no
executor processes (see tests/test_serve_http.py for the end-to-end
service tests).
"""

import pytest

from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobQueue,
    JobSpec,
    JobSpecError,
    QueueFull,
    QuotaExceeded,
)


def spec(**overrides):
    payload = {"kind": "run", "workload": "synthetic_imbalance",
               "scheme": "rr", "scale": 0.25}
    payload.update(overrides)
    return JobSpec.from_payload(payload)


class TestJobSpecValidation:
    def test_minimal_run_payload(self):
        s = spec()
        assert s.kind == "run"
        assert s.workloads == ("synthetic_imbalance",)
        assert s.schemes == ("rr",)
        assert s.priority == "interactive"  # auto: single run

    def test_sweep_defaults_to_batch_priority(self):
        s = JobSpec.from_payload({"kind": "sweep",
                                  "workloads": ["synthetic_imbalance"],
                                  "schemes": ["rr", "gto"], "scale": 0.25})
        assert s.priority == "batch"
        assert s.schemes == ("rr", "gto")

    def test_figure_payload(self):
        s = JobSpec.from_payload({"kind": "figure", "figure": 4,
                                  "scale": 0.25})
        assert s.kind == "figure" and s.figure == 4
        assert s.workloads == () and s.schemes == ()

    def test_comma_separated_strings_split(self):
        s = JobSpec.from_payload({"kind": "sweep",
                                  "workloads": "bfs,kmeans",
                                  "schemes": "rr,cawa", "scale": 0.25})
        assert s.workloads == ("bfs", "kmeans")
        assert s.schemes == ("rr", "cawa")

    @pytest.mark.parametrize("payload,fragment", [
        ({"kind": "bogus"}, "kind"),
        ({"kind": "run"}, "workload"),
        ({"kind": "run", "workload": "nope"}, "unknown workload"),
        ({"kind": "run", "workload": "bfs", "scheme": "nope"},
         "unknown scheme"),
        ({"kind": "run", "workload": "bfs", "scale": -1}, "scale"),
        ({"kind": "run", "workload": "bfs", "scale": "big"}, "scale"),
        ({"kind": "run", "workload": "bfs", "priority": "urgent"},
         "priority"),
        ({"kind": "run", "workload": "bfs", "frobnicate": 1}, "unknown job"),
        ({"kind": "run", "workload": "bfs",
          "workloads": ["kmeans"]}, "not both"),
        ({"kind": "run", "workloads": ["bfs", "kmeans"]}, "exactly one"),
        ({"kind": "figure"}, "figure"),
        ({"kind": "figure", "figure": 999}, "no module"),
        ({"kind": "run", "workload": "bfs", "device": ["clock"]},
         "device"),
        # Values of the wrong type are refused by name, never coerced.
        ({"kind": "run", "workload": "bfs", "fermi": "no"}, "'fermi'"),
        ({"kind": "run", "workload": "bfs", "check": 0}, "'check'"),
        ({"kind": "run", "workload": "bfs", "events": "yes"}, "'events'"),
        ({"kind": "run", "workload": "bfs", "scale": float("nan")}, "scale"),
        ({"kind": "run", "workload": "bfs", "scale": float("inf")}, "scale"),
        ({"kind": "run", "workload": "bfs", "scale": True}, "scale"),
        ({"kind": "figure", "figure": True}, "figure"),
        # A removed scheme is refused with the reason it went.
        ({"kind": "run", "workload": "bfs", "scheme": "ccws"}, "was removed"),
        ({"kind": "run", "workload": "bfs", "scheme": "ciao"}, "was removed"),
        ({"kind": "sweep", "schemes": ["rr", "cawa+bypass"]}, "was removed"),
        # A figure job always verifies, so an unchecked one is refused
        # rather than keyed apart from the checked one.
        ({"kind": "figure", "figure": 4, "check": False},
         "always verify their cells"),
    ])
    def test_bad_payloads_rejected(self, payload, fragment):
        with pytest.raises(JobSpecError, match=fragment):
            JobSpec.from_payload(payload)

    @pytest.mark.parametrize("knob, value", [("backend", "vector"),
                                             ("shards", 2),
                                             ("frontend", "execute"),
                                             ("sampling", "blocks:0.25")])
    def test_removed_knob_is_a_named_error(self, knob, value):
        # One engine, one process per simulation, one path (the trace
        # store), no sampled jobs: the ``device`` field that carried these
        # knobs is gone, and a payload with it is refused by name, not
        # silently run on the base device (``clock``: tests/test_config.py).
        with pytest.raises(JobSpecError,
                           match="the 'device' field was removed"):
            spec(device={knob: value})
        assert "device" not in spec().to_payload()

    def test_non_dict_payload_rejected(self):
        with pytest.raises(JobSpecError):
            JobSpec.from_payload(["not", "a", "dict"])


class TestFingerprint:
    def test_identical_specs_share_fingerprint(self):
        assert spec().fingerprint() == spec().fingerprint()

    def test_tenant_and_priority_excluded(self):
        # Coalescing is multi-tenant: priority does not change the answer.
        assert (spec(priority="interactive").fingerprint()
                == spec(priority="batch").fingerprint())

    def test_events_flag_included(self):
        # Subscribers of an obs-streaming job are promised obs records.
        assert spec(events=True).fingerprint() != spec().fingerprint()

    def test_scale_and_scheme_included(self):
        base = spec().fingerprint()
        assert spec(scale=0.5).fingerprint() != base
        assert spec(scheme="gto").fingerprint() != base

    def test_sweep_cell_order_irrelevant(self):
        a = JobSpec.from_payload({"kind": "sweep", "workloads": ["bfs"],
                                  "schemes": ["rr", "gto"], "scale": 0.25})
        b = JobSpec.from_payload({"kind": "sweep", "workloads": ["bfs"],
                                  "schemes": ["gto", "rr"], "scale": 0.25})
        assert a.fingerprint() == b.fingerprint()


class TestQueueOrdering:
    def test_fifo_within_class(self):
        q = JobQueue()
        first, _ = q.submit(spec())
        second, _ = q.submit(spec(scheme="gto"))
        assert q.pop().id == first.id
        assert q.pop().id == second.id
        assert q.pop() is None

    def test_interactive_preempts_batch(self):
        q = JobQueue()
        batch, _ = q.submit(spec(priority="batch"))
        inter, _ = q.submit(spec(scheme="gto", priority="interactive"))
        assert q.pop().id == inter.id
        assert q.pop().id == batch.id

    def test_pop_disallow_batch_skips_batch_jobs(self):
        q = JobQueue()
        batch, _ = q.submit(spec(priority="batch"))
        assert q.pop(allow_batch=False) is None
        # The skipped entry must survive for a later permissive pop.
        assert q.pop(allow_batch=True).id == batch.id

    def test_pop_marks_running_and_counts_execution(self):
        q = JobQueue()
        job, _ = q.submit(spec())
        popped = q.pop()
        assert popped.state == RUNNING
        assert q.counters["executions"] == 1

    def test_cancelled_jobs_never_pop(self):
        q = JobQueue()
        job, _ = q.submit(spec())
        q.cancel(job.id)
        assert job.state == CANCELLED
        assert q.pop() is None

    def test_cancel_running_job_rejected(self):
        q = JobQueue()
        job, _ = q.submit(spec())
        q.pop()
        with pytest.raises(JobSpecError, match="running"):
            q.cancel(job.id)


class TestCoalescing:
    def test_identical_submissions_coalesce(self):
        q = JobQueue()
        a, coalesced_a = q.submit(spec(), tenant="alice")
        b, coalesced_b = q.submit(spec(), tenant="bob")
        assert not coalesced_a and coalesced_b
        assert a.id == b.id
        assert a.waiters == 1
        assert q.counters["submitted"] == 1
        assert q.counters["coalesced"] == 1
        # One pop drains the queue: a single execution serves both.
        assert q.pop().id == a.id
        assert q.pop() is None

    def test_coalesce_onto_running_job(self):
        q = JobQueue()
        a, _ = q.submit(spec())
        q.pop()
        b, coalesced = q.submit(spec())
        assert coalesced and b.id == a.id

    def test_no_coalesce_after_terminal(self):
        q = JobQueue()
        a, _ = q.submit(spec())
        q.finish(q.pop(), result={"ok": True})
        assert a.state == DONE
        b, coalesced = q.submit(spec())
        assert not coalesced and b.id != a.id

    def test_interactive_join_escalates_batch_primary(self):
        q = JobQueue()
        batch, _ = q.submit(spec(priority="batch"))
        other, _ = q.submit(spec(scheme="gto", priority="interactive"))
        joined, coalesced = q.submit(spec(priority="interactive"))
        assert coalesced and joined.id == batch.id
        assert batch.priority == "interactive"
        # Escalated job now competes FIFO in the interactive class —
        # `other` was enqueued there first.
        assert q.pop().id == other.id
        assert q.pop().id == batch.id

    def test_coalesced_join_exempt_from_quota(self):
        q = JobQueue(tenant_quota=1)
        q.submit(spec(), tenant="alice")
        # Same tenant, identical spec: joins instead of being rejected.
        _, coalesced = q.submit(spec(), tenant="alice")
        assert coalesced
        # A distinct spec from the same tenant is over quota.
        with pytest.raises(QuotaExceeded):
            q.submit(spec(scheme="gto"), tenant="alice")


class TestReuse:
    """A repeat of a finished job is answered at admission."""

    def finished(self, q, **overrides):
        job, _ = q.submit(spec(**overrides))
        q.finish(q.pop(), result={"cycles": 42.0})
        return job

    def test_repeat_is_born_done_with_the_twins_payload(self):
        q = JobQueue()
        twin = self.finished(q)
        job, coalesced = q.submit(spec(), tenant="bob")
        assert not coalesced and job.id != twin.id
        assert job.state == DONE and job.reused_from == twin.id
        assert job.result is twin.result          # shared, not copied
        assert job.started == job.finished and job.exec_s == 0.0
        assert job.to_dict()["reused_from"] == twin.id
        assert job.progress == [{"kind": "reused", "job": job.id,
                                 "reused_from": twin.id}]
        assert q.pop() is None                    # no work was queued
        counters = q.counters
        assert (counters["submitted"], counters["executions"],
                counters["done"], counters["reused"],
                counters["coalesced"]) == (2, 2, 2, 1, 0)

    def test_on_terminal_announces_a_reused_job(self):
        ended = []
        q = JobQueue(on_terminal=lambda job: ended.append(job.id))
        self.finished(q)
        job, _ = q.submit(spec())
        assert ended[-1] == job.id

    def test_events_spec_is_never_reused(self):
        q = JobQueue()
        self.finished(q, events=True)
        job, coalesced = q.submit(spec(events=True))
        assert not coalesced and job.state == QUEUED
        assert job.reused_from is None and q.counters["reused"] == 0

    def test_failed_twin_is_never_reused(self):
        q = JobQueue()
        job, _ = q.submit(spec())
        q.finish(q.pop(), error="boom")
        again, _ = q.submit(spec())
        assert again.state == QUEUED and again.reused_from is None

    def test_evicted_twin_reexecutes(self):
        q = JobQueue()
        self.finished(q)
        q.evict_finished(keep=0)
        job, _ = q.submit(spec())
        assert job.state == QUEUED and job.reused_from is None
        assert q.pop() is job

    def test_twin_is_the_job_that_ran_however_often_reused(self):
        q = JobQueue()
        twin = self.finished(q)
        repeats = [q.submit(spec())[0] for _ in range(3)]
        assert {job.reused_from for job in repeats} == {twin.id}
        # Once the twin is evicted the repeats stop answering: the next
        # one runs and becomes the twin.
        q.evict_finished(keep=3)
        assert twin.id not in q.jobs
        runs, _ = q.submit(spec())
        assert runs.state == QUEUED

    def test_tenant_at_quota_still_gets_a_reused_answer(self):
        q = JobQueue(tenant_quota=1, max_queue=1)
        self.finished(q, scheme="gto")
        q.submit(spec(), tenant="alice")          # alice is at her quota
        job, _ = q.submit(spec(scheme="gto"), tenant="alice")
        assert job.state == DONE and job.reused_from is not None
        with pytest.raises(QuotaExceeded):
            q.submit(spec(scheme="cawa"), tenant="alice")

    def test_latency_block_counts_only_jobs_that_ran(self):
        q = JobQueue()
        self.finished(q)
        q.submit(spec())
        assert q.stats()["latency"]["exec_s"]["n"] == 1


class TestAdmissionControl:
    def test_tenant_quota_rejects(self):
        q = JobQueue(tenant_quota=2)
        q.submit(spec(), tenant="alice")
        q.submit(spec(scheme="gto"), tenant="alice")
        with pytest.raises(QuotaExceeded):
            q.submit(spec(scheme="cawa"), tenant="alice")
        assert q.counters["rejected_quota"] == 1
        # Other tenants are unaffected.
        q.submit(spec(scheme="cawa"), tenant="bob")

    def test_queue_full_rejects(self):
        q = JobQueue(max_queue=2, tenant_quota=100)
        q.submit(spec(), tenant="a")
        q.submit(spec(scheme="gto"), tenant="b")
        with pytest.raises(QueueFull):
            q.submit(spec(scheme="cawa"), tenant="c")
        assert q.counters["rejected_queue_full"] == 1

    def test_running_jobs_do_not_count_against_queue_bound(self):
        q = JobQueue(max_queue=1, tenant_quota=100)
        q.submit(spec(), tenant="a")
        q.pop()  # now running, queue empty again
        q.submit(spec(scheme="gto"), tenant="b")  # fits


class TestProgressChannel:
    """The JSONL progress file bridging executor processes and the server."""

    def test_writer_reader_round_trip(self, tmp_path):
        from repro.serve.progress import ProgressWriter, read_new_records

        path = tmp_path / "spool" / "job.progress.jsonl"
        writer = ProgressWriter(path)
        writer.emit("started", pid=123)
        writer.emit("cell", workload="bfs", cycles=10.0)
        records, offset = read_new_records(path, 0)
        assert [r["kind"] for r in records] == ["started", "cell"]
        # Tailing resumes from the returned offset.
        writer.emit("finished")
        writer.close()
        more, _ = read_new_records(path, offset)
        assert [r["kind"] for r in more] == ["finished"]

    def test_obs_collector_counts_the_whole_run(self, tmp_path):
        # Snapshots carry issue/stall counts since the previous snapshot;
        # the summary counts every kind of the run, not a ring's tail.
        from repro.obs import Ev
        from repro.serve.progress import (
            ObsProgressCollector, ProgressWriter, read_new_records)

        path = tmp_path / "job.progress.jsonl"
        writer = ProgressWriter(path)
        collector = ObsProgressCollector(writer, interval=3)
        issue = (int(Ev.WARP_ISSUE), 1.0, 0, 0, 0, 4, "ADD")
        stall = (int(Ev.WARP_STALL), 2.0, 0, 0, 0, 0, 1.0, 1.0)
        for ev in (issue, stall, issue, issue, issue):
            collector.append(ev)
        collector.finalize()
        writer.close()
        records, _ = read_new_records(path, 0)
        assert [(r["kind"], r.get("issues"), r.get("stalls")) for r in records] == [
            ("obs", 2, 1), ("obs", 2, 0), ("obs_summary", None, None)]
        assert records[-1]["events"] == 5
        assert records[-1]["kinds"] == {"WARP_ISSUE": 4, "WARP_STALL": 1}

    def test_partial_trailing_line_left_for_next_poll(self, tmp_path):
        from repro.serve.progress import read_new_records

        path = tmp_path / "p.jsonl"
        path.write_bytes(b'{"kind": "started"}\n{"kind": "trunc')
        records, offset = read_new_records(path, 0)
        assert [r["kind"] for r in records] == ["started"]
        # The writer finishes the line; the next poll picks it up whole.
        with open(path, "ab") as handle:
            handle.write(b'ated"}\n')
        more, _ = read_new_records(path, offset)
        assert [r["kind"] for r in more] == ["truncated"]

    def test_missing_file_reads_empty(self, tmp_path):
        from repro.serve.progress import read_new_records

        records, offset = read_new_records(tmp_path / "absent.jsonl", 0)
        assert records == [] and offset == 0


class TestSweepJob:
    """A sweep or figure job run in-process, as an executor process runs it."""

    def test_cell_records_arrive_before_finished_warm_or_cold(
            self, tmp_path, monkeypatch):
        from repro.experiments import result_cache, runner
        from repro.serve.progress import read_new_records
        from repro.serve.worker import execute_job

        monkeypatch.setattr(result_cache, "_dir_override", None)
        payload = {"kind": "sweep", "scale": 0.25,
                   "workloads": ["synthetic_imbalance", "synthetic_divergence"],
                   "schemes": ["rr", "gto"]}
        answers = []
        for run in ("cold", "warm"):
            runner.clear_cache()  # the warm run reads the disk cache
            progress = tmp_path / f"{run}.jsonl"
            before = runner.cells_simulated()
            answer = execute_job(payload, str(progress),
                                 str(tmp_path / "cache"))
            assert runner.cells_simulated() - before == (
                4 if run == "cold" else 0)
            records, _ = read_new_records(progress, 0)
            kinds = [r["kind"] for r in records]
            assert kinds == ["started"] + ["cell"] * 4 + ["finished"], run
            cycles = {(c["workload"], c["scheme"]): c["result"]["cycles"]
                      for c in answer["cells"]}
            assert len(cycles) == 4
            assert {(r["workload"], r["scheme"]): r["cycles"]
                    for r in records[1:5]} == cycles
            answers.append(answer)
        assert answers[0] == answers[1]

    def test_a_figure_job_reports_each_cell_of_its_grid(
            self, tmp_path, monkeypatch):
        from repro.experiments import fig04, result_cache, run_figure
        from repro.serve.progress import read_new_records
        from repro.serve.worker import execute_job

        monkeypatch.setattr(result_cache, "_dir_override", None)
        progress = tmp_path / "figure.jsonl"
        answer = execute_job({"kind": "figure", "figure": 4, "scale": 0.25},
                             str(progress), str(tmp_path / "cache"))
        records, _ = read_new_records(progress, 0)
        assert [r["kind"] for r in records] == (
            ["started"] + ["cell"] * 4 + ["finished"])
        assert [(r["workload"], r["scheme"])
                for r in records[1:5]] == fig04.cells()
        assert answer["text"] == fig04.render(run_figure(4, scale=0.25))


class TestLifecycle:
    def test_finish_success(self):
        q = JobQueue()
        job, _ = q.submit(spec())
        q.finish(q.pop(), result={"cycles": 1.0})
        assert job.state == DONE
        assert job.result == {"cycles": 1.0}
        assert q.counters["done"] == 1

    def test_finish_failure(self):
        q = JobQueue()
        job, _ = q.submit(spec())
        q.finish(q.pop(), error="boom")
        assert job.state == FAILED and job.error == "boom"
        assert q.counters["failed"] == 1

    def test_evict_finished_keeps_newest(self):
        q = JobQueue()
        ids = []
        for scheme in ("rr", "gto", "cawa"):
            job, _ = q.submit(spec(scheme=scheme))
            ids.append(job.id)
            q.finish(q.pop(), result={})
        assert q.evict_finished(keep=1) == 2
        assert set(q.jobs) == {ids[-1]}

    def test_stats_shape(self):
        q = JobQueue()
        q.submit(spec(), tenant="alice")
        stats = q.stats()
        assert stats["queued"] == 1
        assert stats["tenants"] == {"alice": 1}
        assert stats["counters"]["submitted"] == 1

    def test_to_dict_round_trip_fields(self):
        q = JobQueue()
        job, _ = q.submit(spec())
        d = job.to_dict()
        assert d["state"] == QUEUED
        assert d["kind"] == "run"
        assert d["has_result"] is False
        assert "progress" not in d
        assert "progress" in job.to_dict(with_progress=True)

    def test_on_terminal_fires_once_per_job_for_every_ending(self):
        ended = []
        q = JobQueue(on_terminal=lambda job: ended.append((job.id, job.state)))
        done, _ = q.submit(spec())
        failed, _ = q.submit(spec(scheme="gto"))
        cancelled, _ = q.submit(spec(scheme="cawa"))
        q.cancel(cancelled.id)
        q.finish(q.pop(), result={})
        q.finish(q.pop(), error="boom")
        assert ended == [(cancelled.id, CANCELLED), (done.id, DONE),
                         (failed.id, FAILED)]

    def test_latency_block_is_nearest_rank_over_jobs_that_ran(self):
        q = JobQueue()
        for i, scheme in enumerate(("rr", "gto", "cawa", "two_level")):
            job, _ = q.submit(spec(scheme=scheme))
            q.pop()
            job.created, job.started = 100.0, 100.0 + i
            q.finish(job, result={})
            job.finished = job.started + 10.0 * (i + 1)
        never_ran, _ = q.submit(spec(scheme="gcaws"))
        q.cancel(never_ran.id)
        assert never_ran.timing() == {"queue_wait_s": None, "exec_s": None,
                                      "fan_in": 1}
        latency = q.stats()["latency"]
        assert latency["queue_wait_s"] == {"n": 4, "p50": 1.0, "p90": 3.0,
                                           "max": 3.0}
        assert latency["exec_s"] == {"n": 4, "p50": 20.0, "p90": 40.0,
                                     "max": 40.0}
