"""The derived stall sums against their eager reference.

A warp sums only its data stall (and the memory part of it) at issue; the
total is telescoped from its issue cycles and the scheduler stall is the
difference.  :class:`~tests.oracles.StallReferenceOracle` replays the
per-issue sums the issue path once kept and asserts bit-equality after
every issue; ``tests/test_replay_signatures.py`` runs it on all pinned
cells.  Here: it checks what it claims to, and it names two broken
derivations.
"""

from __future__ import annotations

import pytest

from repro import GPU, GPUConfig, apply_scheme
from repro.simt.warp import Warp
from repro.sm.sm import StreamingMultiprocessor
from repro.workloads import make_workload
from tests.oracles import StallReferenceOracle


def run_checked(name="bfs", scheme="gto", scale=0.25):
    gpu = GPU(apply_scheme(GPUConfig.default_sim(), scheme))
    oracle = StallReferenceOracle(gpu)
    result = make_workload(name, scale=scale).run(gpu, scheme=scheme, check=True)
    return oracle, result


def test_the_oracle_checks_every_issue():
    oracle, result = run_checked()
    assert oracle.issues == result.warp_instructions
    warps = [w for block in result.blocks for w in block.warps]
    # The cell has both kinds of stall for the derivations to get wrong.
    assert sum(w.sched_stall_cycles for w in warps) > 0
    assert sum(w.mem_stall_cycles for w in warps) > 0


def test_an_off_by_one_telescoped_sum_is_named(monkeypatch):
    monkeypatch.setattr(Warp, "total_stall_cycles", property(
        lambda w: w.last_issue_cycle - w.start_cycle - w.issued_instructions))
    with pytest.raises(AssertionError, match="total_stall_cycles of warp"):
        run_checked()


def test_a_gap_counted_as_data_stall_is_named(monkeypatch):
    real = StreamingMultiprocessor._issue

    def whole_gap_is_data(self, warp, scheduler, now):
        base = warp.last_issue_cycle + 1
        data_before = warp.data_stall_cycles
        outcome = real(self, warp, scheduler, now)
        warp.data_stall_cycles = data_before + max(0.0, now - base)
        return outcome

    monkeypatch.setattr(StreamingMultiprocessor, "_issue", whole_gap_is_data)
    with pytest.raises(AssertionError, match="sched_stall_cycles of warp"):
        run_checked()
