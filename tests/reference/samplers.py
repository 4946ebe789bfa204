"""Figs 11 and 12's per-issue samplers: the references for ``CPL_VERDICT``.

Before CPL's verdicts were an event record, both figures sampled the
predictor from an SM hook that ran after every issue: each kept its own
per-block issue count and, every ``sample_period`` issues of a block, read
the block's unfinished warps — their latched verdict (Fig 11) or their
criticality rank among their peers (Fig 12).  The SM no longer has that
hook; :func:`on_every_issue` patches one back in for a test.

At ``sample_period`` 64 (the CPL refresh period) the accuracy sampler sees
what the ``CPL_VERDICT`` records carry; the priority sampler samples every
32 issues, so the records are its every other sample.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.fig12 import PriorityTrace
from repro.sm.sm import StreamingMultiprocessor
from repro.stats.accuracy import CriticalityAccuracyTracker, _BlockSamples


def on_every_issue(monkeypatch, *samplers) -> None:
    """Call ``sampler.on_issue(sm, warp, now)`` at the end of every issue of
    every SM built from here on (and every one already built)."""
    issue = StreamingMultiprocessor._issue

    def sampled(sm, warp, scheduler, now):
        issue(sm, warp, scheduler, now)
        for sampler in samplers:
            sampler.on_issue(sm, warp, now)

    monkeypatch.setattr(StreamingMultiprocessor, "_issue", sampled)


def rank_in_block(warp) -> int:
    """Criticality rank within the block (0 = least critical)."""
    peers = [w.criticality for w in warp.block.warps if not w.finished]
    return sum(1 for c in peers if c < warp.criticality)


class IssueCounter:
    """Per-(sm, block) issue count; ``due`` every ``sample_period`` issues."""

    def __init__(self, sample_period: int) -> None:
        self.sample_period = sample_period
        self._issues: Dict[Tuple[int, int], int] = {}

    def due(self, sm, warp) -> bool:
        key = (sm.sm_id, warp.block.block_id)
        count = self._issues.get(key, 0) + 1
        self._issues[key] = count
        return count % self.sample_period == 0


class AccuracySampler(CriticalityAccuracyTracker):
    """Fig 11's tracker as it sampled: scored by the same ``report``."""

    def __init__(self, sample_period: int = 64) -> None:
        super().__init__()
        self._counter = IssueCounter(sample_period)

    def on_issue(self, sm, warp, now) -> None:
        if not self._counter.due(sm, warp):
            return
        record = self._samples.setdefault((sm.sm_id, warp.block.block_id),
                                          _BlockSamples())
        record.samples += 1
        for peer in warp.block.warps:
            if peer.finished:
                continue
            if sm.cpl.is_critical(peer):
                record.flagged_slow[peer.warp_id_in_block] = (
                    record.flagged_slow.get(peer.warp_id_in_block, 0) + 1
                )


class PriorityTraceSampler(PriorityTrace):
    """Fig 12's priority tracer as it sampled: per-warp ranks, reported by
    the same ``report``."""

    def __init__(self, sample_period: int = 32) -> None:
        super().__init__()
        self._counter = IssueCounter(sample_period)

    def on_issue(self, sm, warp, now) -> None:
        if not self._counter.due(sm, warp):
            return
        snapshot = {
            peer.warp_id_in_block: rank_in_block(peer)
            for peer in warp.block.warps
            if not peer.finished
        }
        self.samples.setdefault((sm.sm_id, warp.block.block_id), []).append(
            (now, snapshot))
