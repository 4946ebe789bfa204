"""Record once, replay the rest — what a caller who says nothing gets.

``run_scheme`` with a default config runs a workload's functional side
once — the recorder's scheduler-free functional pass — and every cell, the
first included, is a replay; ``tests.oracles.run_in_place`` is the parity
reference, which never consults the trace store: its GPU records every
launch in place.  This file pins the economy of that default (one functional
pass per workload, and none on replay),
its parity with the reference across the ways a cell can be asked for, and
the three ways the
default could otherwise go wrong: replaying a trace nobody verified,
writing a cache the user disabled, and replaying streams an older version
recorded.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import re

import pytest

import repro
from repro import trace as trace_mod
from repro.cli import main
from repro.config import GPUConfig
from repro.experiments import runner
from repro.experiments.runner import run_scheme, run_sweep
from repro.obs import record_events
from repro.obs.bus import EventBus, bus_from_spec
from repro.stats.accuracy import CriticalityAccuracyTracker
from repro.stats.reuse import ReuseDistanceProfiler
from repro.trace import functional as functional_mod
from repro.trace import recorder as recorder_mod
from repro.trace import store as trace_store

from tests.oracles import run_in_place

SCALE = 0.25
SCHEMES = ["rr", "gto", "cawa", "caws"]
WORKLOADS = ["bfs", "kmeans", "needle"]
#: Where only the path matters, not the workload: cells of a few
#: milliseconds (tier-1 wall time is an acceptance criterion).
SMALL = 0.1
TINY, TINY_SCALE = "synthetic_imbalance", 0.5


@pytest.fixture(autouse=True)
def _fresh_memo():
    runner.clear_cache()
    yield
    runner.clear_cache()


class Functional:
    """Functional work from here on: ``passes`` holds the record count of
    every functional pass the recorder ran, ``in_place`` of every pass a
    GPU without a trace ran for a launch of its own (``run_in_place``).
    ``record_launch`` is the one entry point of functional execution, so a
    replay adds to neither."""

    def __init__(self):
        self.passes = []
        self.in_place = []


@pytest.fixture
def executions(monkeypatch):
    seen = Functional()
    record_launch = recorder_mod.record_launch

    def counting(into):
        def recorded(*args, **kwargs):
            launch, steps = record_launch(*args, **kwargs)
            assert 0 < steps <= launch.record_count
            into.append(launch.record_count)
            return launch, steps
        return recorded

    monkeypatch.setattr(recorder_mod, "record_launch", counting(seen.passes))
    # GPU.launch looks the pass up in its module at each launch.
    monkeypatch.setattr(functional_mod, "record_launch", counting(seen.in_place))
    return seen


def _stored_records(workload, scale=SCALE, **kwargs):
    """Records in the stored trace: one per warp instruction, i.e. one
    cell's worth of functional work."""
    program = trace_mod.load_program(
        workload, scale, GPUConfig.default_sim(), kwargs or None)
    return program.record_count


def signature(result):
    """Everything the two paths must agree on, stall sums per warp included."""
    return (
        result.cycles, result.warp_instructions, result.thread_instructions,
        dataclasses.astuple(result.l1_stats), dataclasses.astuple(result.l2_stats),
        result.dram_accesses,
        [(w.issued_instructions, w.total_stall_cycles, w.mem_stall_cycles,
          w.sched_stall_cycles) for b in result.blocks for w in b.warps],
    )


def _reference(workload, scheme, scale, config=None, **kwargs):
    return run_in_place(workload, scheme, scale,
                        config or GPUConfig.default_sim(), **kwargs)


# ----------------------------------------------------------------------
# Economy + parity of the default path
# ----------------------------------------------------------------------
class TestDefaultPath:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_executor_runs_for_one_cell_and_every_cell_agrees(
            self, workload, request):
        references = {s: signature(_reference(workload, s, SCALE))
                      for s in SCHEMES}
        # caws' oracle profile is a runner cell: it recorded the trace.
        runner.clear_cache(disk=True)

        executions = request.getfixturevalue("executions")
        results = {s: run_scheme(workload, s, scale=SCALE) for s in SCHEMES}
        assert executions.passes == [_stored_records(workload)]
        assert executions.in_place == []
        assert [r.recorded for r in results.values()] == [True] + [False] * 3
        assert {r.frontend for r in results.values()} == {"trace"}
        assert len({r.trace_id for r in results.values()}) == 1
        cold = results[SCHEMES[0]]
        program = trace_mod.load_program(workload, SCALE, GPUConfig.default_sim())
        assert cold.record_steps == program.meta["steps"] > 0
        assert cold.record_warps == program.warp_count
        assert cold.record_s > 0 and cold.replay_s > 0
        for scheme in SCHEMES:
            assert signature(results[scheme]) == references[scheme], scheme

    def test_sweep_records_once_per_workload(self, executions):
        workloads = ["bfs", TINY]
        # One process, so that the spy sees every functional pass.
        results = run_sweep(workloads, ["gto", "rr", "cawa"], scale=SMALL,
                            jobs=1)
        recorded = [cell for cell, r in results.items() if r.recorded]
        assert recorded == [(w, "gto") for w in workloads]
        assert executions.passes == [_stored_records(w, SMALL) for w in workloads]
        assert executions.in_place == []

    def test_sweep_on_two_processes_records_once_per_workload(self):
        """The same claim where a helper process does part of the work:
        its functional passes show in ``recorded`` and in the store."""
        workloads = ["bfs", TINY]
        results = run_sweep(workloads, ["gto", "rr", "cawa"], scale=SMALL,
                            jobs=2)
        recorded = [cell for cell, r in results.items() if r.recorded]
        assert recorded == [(w, "gto") for w in workloads]
        assert sorted(info.workload for _, info in trace_mod.list_traces()) \
            == sorted(workloads)

    def test_events_on(self, executions):
        recorded, recorded_bus = record_events("bfs", "cawa", scale=SMALL)
        replayed, replayed_bus = record_events("bfs", "cawa", scale=SMALL)
        reference_bus = bus_from_spec("on")
        reference = _reference("bfs", "cawa", SMALL, bus=reference_bus)
        assert (recorded.recorded, replayed.recorded) == (True, False)
        assert recorded.frontend == replayed.frontend == "trace"
        assert len(executions.passes) == 1
        assert signature(recorded) == signature(replayed) == signature(reference)
        assert (recorded_bus.emitted == replayed_bus.emitted
                == reference_bus.emitted > 0)

    def test_accuracy_and_reuse_observers(self):
        run_scheme("bfs", "rr", scale=SMALL)  # record
        replayed = run_scheme("bfs", "cawa", scale=SMALL, with_accuracy=True)
        ours = ReuseDistanceProfiler()
        record_events("bfs", "cawa", scale=SMALL, collectors=(ours,),
                      events="ring:1")
        # Both read bus records: CPL_VERDICT and the L1 probes.
        tracker, theirs = CriticalityAccuracyTracker(), ReuseDistanceProfiler()
        bus = EventBus(capacity=1)
        bus.attach(tracker)
        bus.attach(theirs)
        reference = _reference("bfs", "cawa", SMALL, bus=bus)
        assert replayed.frontend == "trace"
        assert signature(replayed) == signature(reference)
        assert replayed.extra["cpl_accuracy"] == tracker.accuracy(reference)
        assert ours.critical == theirs.critical
        assert ours.non_critical == theirs.non_critical
        assert ours.by_pc == theirs.by_pc and ours.by_pc

    def test_workload_kwargs_get_their_own_trace(self, executions):
        plain = run_scheme("bfs", "rr", scale=SMALL)
        variant = run_scheme("bfs", "rr", scale=SMALL, seed=3, balanced=True)
        assert variant.trace_id != plain.trace_id and variant.recorded
        assert len(executions.passes) == 2
        replayed = run_scheme("bfs", "gto", scale=SMALL, seed=3, balanced=True)
        assert len(executions.passes) == 2 and not replayed.recorded
        assert executions.in_place == []
        reference = _reference("bfs", "gto", SMALL, seed=3, balanced=True)
        assert executions.in_place == [executions.passes[1]] == [_stored_records(
            "bfs", SMALL, seed=3, balanced=True)]
        assert len(executions.passes) == 2
        assert signature(replayed) == signature(reference)
        assert signature(replayed) != signature(
            run_scheme("bfs", "gto", scale=SMALL))
        assert plain.warp_instructions != variant.warp_instructions
        assert len(trace_mod.list_traces()) == 2

    def test_sampled_config_records_the_whole_trace_once(self, executions):
        cfg = GPUConfig.default_sim().with_sampling("blocks:0.5")
        cold = run_scheme("bfs", "gto", scale=SCALE, config=cfg, use_cache=False)
        warm = run_scheme("bfs", "gto", scale=SCALE, config=cfg, use_cache=False)
        exact = run_scheme("bfs", "gto", scale=SCALE)
        assert executions.passes == [exact.warp_instructions]
        assert (cold.recorded, warm.recorded, exact.recorded) == (True, False, False)
        assert (cold.cycles, cold.info.replay_fraction) == (
            warm.cycles, warm.info.replay_fraction)
        assert 0 < cold.info.replay_fraction < 1


# ----------------------------------------------------------------------
# Satellite: a replay never stands in for a verification it did not do
# ----------------------------------------------------------------------
class TestVerified:
    def test_unverified_trace_is_rerecorded_for_a_checking_caller(self, executions):
        first = run_scheme(TINY, "rr", scale=TINY_SCALE, check=False, use_cache=False)
        assert len(executions.passes) == 1
        ((_, info),) = trace_mod.list_traces()
        assert info.meta["verified"] is False
        # check=False callers replay it...
        again = run_scheme(TINY, "gto", scale=TINY_SCALE, check=False, use_cache=False)
        assert not again.recorded and len(executions.passes) == 1
        # ...a check=True caller records again, verifies and overwrites.
        checked = run_scheme(TINY, "gto", scale=TINY_SCALE, use_cache=False)
        assert checked.recorded and len(executions.passes) == 2
        ((_, info),) = trace_mod.list_traces()
        assert info.meta["verified"] is True
        assert info.trace_id == first.trace_id
        # From here on everybody replays.
        for check in (True, False):
            result = run_scheme(TINY, "cawa", scale=TINY_SCALE, check=check,
                                use_cache=False)
            assert result.frontend == "trace" and not result.recorded
        assert len(executions.passes) == 2 and executions.in_place == []

    def test_failing_verification_raises_even_with_a_trace_present(self, monkeypatch):
        from repro.workloads.base import LaunchSpec

        monkeypatch.setattr(LaunchSpec, "verify", lambda self, gpu: False)
        run_scheme(TINY, "rr", scale=TINY_SCALE, check=False, use_cache=False)
        assert len(trace_mod.list_traces()) == 1
        with pytest.raises(AssertionError, match="verification failed"):
            run_scheme(TINY, "gto", scale=TINY_SCALE, use_cache=False)
        # The harnesses that drive replay themselves go through the same gate.
        from repro.obs import record_events

        with pytest.raises(AssertionError, match="verification failed"):
            record_events(TINY, "gto", scale=TINY_SCALE)
        result, _bus = record_events(TINY, "gto", scale=TINY_SCALE, check=False)
        assert result.frontend == "trace"

    def test_unverified_result_is_a_miss_for_a_checking_caller(self, executions, tmp_path):
        """The result caches are keyed without ``check``: what they hold
        says whether a run verified it, and only that serves ``check=True``."""
        from repro.experiments import result_cache

        def files():
            return sorted((tmp_path / "repro_cache").glob("*.json"))

        unchecked = run_scheme(TINY, "rr", scale=TINY_SCALE, check=False)
        assert len(executions.passes) == 1 and not unchecked.verified
        (entry,) = files()
        # Memo and disk entry both serve the next check=False caller...
        assert run_scheme(TINY, "rr", scale=TINY_SCALE, check=False) is unchecked
        runner.clear_cache()
        from_disk = run_scheme(TINY, "rr", scale=TINY_SCALE, check=False)
        assert len(executions.passes) == 1 and not from_disk.verified
        # ...and neither serves check=True: it records a second time (the
        # stored trace is unverified as well), verifies, and overwrites both.
        checked = run_scheme(TINY, "rr", scale=TINY_SCALE)
        assert len(executions.passes) == 2
        assert checked.verified and checked.recorded
        assert signature(checked) == signature(unchecked)
        assert files() == [entry]
        for check in (True, False):
            assert run_scheme(TINY, "rr", scale=TINY_SCALE, check=check) is checked
        for check in (True, False):
            runner.clear_cache()
            stored = run_scheme(TINY, "rr", scale=TINY_SCALE, check=check)
            assert stored.verified and signature(stored) == signature(checked)
        assert len(executions.passes) == 2
        # A replayed cell is as verified as the recording it replays.
        replayed = run_scheme(TINY, "gto", scale=TINY_SCALE, check=False)
        assert replayed.frontend == "trace" and replayed.verified
        # An entry stored before the field existed loads, for check=False only.
        key = entry.stem
        payload = result_cache.load(key).to_dict()
        del payload["verified"]
        entry.write_text(json.dumps(payload))
        runner.clear_cache()
        old = run_scheme(TINY, "rr", scale=TINY_SCALE, check=False)
        assert not old.verified and signature(old) == signature(checked)
        runner.clear_cache()
        assert not run_scheme(TINY, "rr", scale=TINY_SCALE).recorded
        assert result_cache.load(key).verified

    def test_failing_verification_raises_even_with_cached_results(self, monkeypatch, tmp_path):
        from repro.workloads.base import LaunchSpec

        monkeypatch.setattr(LaunchSpec, "verify", lambda self, gpu: False)
        wrong = run_scheme(TINY, "rr", scale=TINY_SCALE, check=False)
        assert len(list((tmp_path / "repro_cache").glob("*.json"))) == 1
        # Memo present, disk entry present, trace present: still raises.
        with pytest.raises(AssertionError, match="verification failed"):
            run_scheme(TINY, "rr", scale=TINY_SCALE)
        runner.clear_cache()
        with pytest.raises(AssertionError, match="verification failed"):
            run_scheme(TINY, "rr", scale=TINY_SCALE)
        # A sweep on two processes goes through the same gate (its pool
        # stubbed in-process: the patched ``verify`` must apply).
        class InProcessPool:
            def __init__(self, max_workers=None):
                pass

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                try:
                    future.set_result(fn(*args))
                except Exception as exc:
                    future.set_exception(exc)
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        memo = {s: run_scheme(TINY, s, scale=TINY_SCALE, check=False)
                for s in ("rr", "gto")}
        assert memo["rr"].cycles == wrong.cycles and not memo["rr"].verified
        served = run_sweep([TINY], ["rr", "gto"], scale=TINY_SCALE, jobs=2,
                           check=False)
        assert all(served[(TINY, s)] is memo[s] for s in memo)
        with pytest.raises(AssertionError, match="verification failed"):
            run_sweep([TINY], ["rr", "gto"], scale=TINY_SCALE, jobs=2)


# ----------------------------------------------------------------------
# Satellite: REPRO_DISK_CACHE=0 covers the trace store
# ----------------------------------------------------------------------
def test_disk_cache_disabled_means_no_trace_files(monkeypatch, tmp_path, executions):
    cache = tmp_path / "repro_cache"
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    results = run_sweep([TINY], ["rr", "gto", "cawa"], scale=TINY_SCALE)
    assert [r.recorded for r in results.values()] == [True, False, False]
    assert executions.passes == [results[(TINY, "rr")].warp_instructions]
    assert not cache.exists() or not [p for p in cache.rglob("*") if p.is_file()]
    assert trace_mod.list_traces() == []
    # A trace on disk is not read either.
    monkeypatch.delenv("REPRO_DISK_CACHE")
    runner.clear_cache()
    run_scheme(TINY, "rr", scale=TINY_SCALE, use_cache=False)
    assert len(trace_mod.list_traces()) == 1
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    trace_store.forget()
    assert trace_mod.load_program(TINY, TINY_SCALE, GPUConfig.default_sim()) is None
    assert run_scheme(TINY, "gto", scale=TINY_SCALE, use_cache=False).recorded


# ----------------------------------------------------------------------
# Satellite: a version bump misses the trace store
# ----------------------------------------------------------------------
def test_version_bump_misses_and_rerecords(monkeypatch, executions):
    cfg = GPUConfig.default_sim()
    run_scheme(TINY, "rr", scale=TINY_SCALE, use_cache=False)
    old_path = trace_mod.trace_path(TINY, TINY_SCALE, cfg)
    assert old_path.exists()
    monkeypatch.setattr(trace_store, "__version__", repro.__version__ + ".post1")
    assert trace_mod.trace_path(TINY, TINY_SCALE, cfg) != old_path
    result = run_scheme(TINY, "gto", scale=TINY_SCALE, use_cache=False)
    assert result.recorded and len(executions.passes) == 2
    assert len(trace_mod.list_traces()) == 2


def test_memo_hands_a_recording_to_the_next_cell_without_a_decode(monkeypatch):
    from repro.trace.format import TraceProgram

    assert trace_store._PROGRAM_MEMO_CAP == 4
    monkeypatch.setattr(TraceProgram, "from_bytes",
                        lambda *a, **k: pytest.fail("decoded its own recording"))
    recorded = run_scheme(TINY, "rr", scale=TINY_SCALE, use_cache=False)
    replayed = run_scheme(TINY, "gto", scale=TINY_SCALE, use_cache=False)
    assert (recorded.recorded, replayed.recorded) == (True, False)
    assert recorded.trace_id == replayed.trace_id


# ----------------------------------------------------------------------
# Satellite: the CLI says which path a result took
# ----------------------------------------------------------------------
class TestCliReportsThePathTaken:
    ARGS = ["--workload", TINY, "--scale", str(TINY_SCALE)]

    def test_run_prints_recorded_then_replayed(self, capsys):
        assert main(["run", *self.ARGS, "--scheme", "rr"]) == 0
        first = capsys.readouterr().out.strip().splitlines()[-1]
        assert main(["run", *self.ARGS, "--scheme", "gto"]) == 0
        second = capsys.readouterr().out.strip().splitlines()[-1]
        assert re.fullmatch(
            r"recorded trace [0-9a-f]{12} in \d+ ms \(\d+ steps, \d+ warps\), "
            r"replayed in \d+ ms", first), first
        assert second == "replayed trace " + first.split()[2]

    def test_sweep_footer_counts_both(self, capsys):
        assert main(["sweep", "--workloads", "synthetic_imbalance,synthetic_divergence",
                     "--schemes", "rr,gto,cawa", "--scale", "0.5"]) == 0
        assert capsys.readouterr().out.strip().endswith("recorded 2, replayed 4")

    def test_sweep_footer_counts_a_helpers_cells(self, capsys):
        """A cell a helper process simulated counts as this sweep's work."""
        assert main(["sweep", "--workloads", "synthetic_imbalance,synthetic_divergence",
                     "--schemes", "rr,gto,cawa", "--scale", "0.5", "--jobs", "2"]) == 0
        assert capsys.readouterr().out.strip().endswith("recorded 2, replayed 4")

    def test_sweep_footer_counts_cache_hits_apart(self, capsys):
        """Only this invocation's work counts as recorded or replayed: a
        cell the memo or the disk cache answered keeps the provenance of
        the run that made it, and is counted as cached."""
        grid = ["sweep", "--workloads", "synthetic_imbalance,synthetic_divergence",
                "--scale", "0.5", "--schemes"]

        def footer(schemes):
            assert main([*grid, schemes]) == 0
            return capsys.readouterr().out.strip().splitlines()[-1]

        assert footer("rr,gto") == "recorded 2, replayed 2"
        assert footer("rr,gto") == "recorded 0, replayed 0, cached 4"
        runner.clear_cache()  # a new process: the disk cache answers
        assert footer("rr,gto") == "recorded 0, replayed 0, cached 4"
        assert footer("rr,gto,cawa") == "recorded 0, replayed 2, cached 4"

    def test_trace_info_lists_headers(self, capsys):
        assert main(["run", *self.ARGS, "--no-check"]) == 0
        capsys.readouterr()
        assert main(["trace", "info"]) == 0
        out = capsys.readouterr().out
        assert "synthetic_imbalance" in out and "verified" in out
        header, row = (line.split() for line in out.strip().splitlines()[::2])
        cell = dict(zip(header, row))
        assert cell["verified"] == "no"
        assert float(cell["warps/step"]) == pytest.approx(
            int(cell["records"]) / int(cell["steps"]), abs=0.05)
