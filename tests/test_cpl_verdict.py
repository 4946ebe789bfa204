"""CPL's periodic verdicts reach Figs 11 and 12 as one bus record.

Each refresh of a block's slow-warp verdicts (every ``cpl_update_period``
issues of the block) ends in one ``CPL_VERDICT`` record, emitted where the
refreshing issue ends: after an EXIT retired the warp and a branch moved
its counter.  Fig 11's accuracy tracker and Fig 12's priority trace are
bus collectors over it; there is no per-issue hook on the SM.  The old
per-issue samplers (``tests/reference/samplers.py``) are the reference:
Fig 11's numbers are theirs, and Fig 12's trace is their every other
sample (they sampled every 32 issues, the record comes every 64).
"""

from __future__ import annotations

import csv
import io

import pytest

from repro import GPU, GPUConfig
from repro import trace as trace_mod
from repro.experiments import fig12, runner
from repro.obs import chrome_trace, events_csv, record_events, validate_events
from repro.obs.events import Ev
from repro.stats.accuracy import CriticalityAccuracyTracker
from tests.reference.samplers import AccuracySampler, PriorityTraceSampler, on_every_issue

SMALL = 0.25
#: Two of the paper's sensitive workloads; kmeans @ 0.5 has blocks that
#: commit in a refreshing issue.
CELLS = [("bfs", SMALL), ("kmeans", 0.5)]
_VERDICT = int(Ev.CPL_VERDICT)


@pytest.fixture(autouse=True)
def _fresh_memo():
    runner.clear_cache()
    yield
    runner.clear_cache()


def verdicts(events):
    return [ev for ev in events if ev[0] == _VERDICT]


class TestTheHookIsGone:
    def test_replay_program_takes_no_observers(self):
        cfg = GPUConfig.default_sim()
        program = runner.load_or_record_program("bfs", "rr", SMALL, cfg)
        with pytest.raises(TypeError, match="observers"):
            trace_mod.replay_program(program, cfg, observers=[])

    def test_run_scheme_takes_no_observers(self):
        # Not a run_scheme option: it reaches the workload constructor.
        with pytest.raises(TypeError, match="observers"):
            runner.run_scheme("bfs", "cawa", scale=SMALL, observers=[])
        with pytest.raises(TypeError, match="observers"):
            runner.run_sweep(["bfs"], ["cawa"], scale=SMALL, observers=[])

    def test_an_sm_has_no_issue_observers(self):
        sm = GPU(GPUConfig.default_sim()).sms[0]
        assert not hasattr(sm, "issue_observers")


class TestTheRecord:
    def test_one_record_per_refresh_in_warp_order(self):
        result, bus = record_events("kmeans", "cawa", scale=0.5)
        records = verdicts(bus.events())
        period = GPUConfig.default_sim().cpl_update_period
        assert len(records) == sum(block.cpl_issues // period
                                   for block in result.blocks) > 0
        validate_events(records)
        for _, _, _, _, warps in records:
            assert [w for w, _, _ in warps] == sorted(w for w, _, _ in warps)
            for _, criticality, critical in warps:
                assert isinstance(criticality, float) and isinstance(critical, bool)
        # A block whose last warp exited in a refreshing issue still
        # reports that sample, with no warp in it (4 of kmeans' 388).
        assert any(ev[4] == () for ev in records)

    def test_validate_and_exports_round_trip(self):
        _, bus = record_events("bfs", "cawa", scale=SMALL)
        records = verdicts(bus.events())
        assert validate_events(records) == len(records)
        exported = [e for e in chrome_trace(records)["traceEvents"]
                    if e["name"] == "CPL_VERDICT"]
        assert len(exported) == len(records)
        assert {e["args"]["block"] for e in exported} == {ev[3] for ev in records}
        rows = list(csv.reader(io.StringIO(events_csv(records))))
        assert len(rows) == len(records) + 1
        assert {len(row) for row in rows} == {len(rows[0])}


@pytest.mark.parametrize("workload,scale", CELLS)
def test_figs_11_and_12_match_the_per_issue_samplers(monkeypatch, workload, scale):
    accuracy_reference, priority_reference = AccuracySampler(), PriorityTraceSampler()
    on_every_issue(monkeypatch, accuracy_reference, priority_reference)
    tracker, trace = CriticalityAccuracyTracker(), fig12.PriorityTrace()
    result, _ = record_events(workload, "cawa", scale=scale,
                              collectors=(tracker, trace), events="ring:1")

    assert tracker._samples == accuracy_reference._samples
    assert tracker.accuracy(result) == accuracy_reference.accuracy(result)
    assert trace.samples == {key: samples[1::2] for key, samples
                             in priority_reference.samples.items() if samples[1::2]}
    ours = fig12.critical_trace(result, trace.samples)
    assert ours and ours == fig12.critical_trace(result, priority_reference.samples)[1::2]


def test_fig11_cell_is_the_collectors_score(monkeypatch):
    """``run_scheme(with_accuracy=True)`` scores the bus collector, and the
    per-issue sampler agrees on the same cell."""
    reference = AccuracySampler()
    on_every_issue(monkeypatch, reference)
    result = runner.run_scheme("bfs", "cawa", scale=SMALL, with_accuracy=True,
                               with_reuse=True, use_cache=False)
    assert result.extra["cpl_accuracy"] == reference.accuracy(result)
    assert result.extra["reuse_profiler"].critical.references > 0
