"""The derived CPL counter against its eager reference.

A warp keeps only the inputs of Eq. 1 and derives ``criticality`` when it
is read.  :class:`~tests.oracles.CPLReferenceOracle` replays the per-issue
update CPL used to run and asserts bit-equality on every branch and every
block refresh; ``tests/test_replay_signatures.py`` runs it on all pinned
cells.  Here: it checks what it claims to, and it names a broken anchor.
"""

from __future__ import annotations

import pytest

from repro import GPU, GPUConfig, apply_scheme
from repro.core.cpl import CriticalityPredictor
from repro.simt.warp import Warp
from repro.workloads import make_workload
from tests.oracles import CPLReferenceOracle


def run_checked(name="bfs", scheme="cawa", scale=0.25):
    gpu = GPU(apply_scheme(GPUConfig.default_sim(), scheme))
    oracle = CPLReferenceOracle(gpu)
    make_workload(name, scale=scale).run(gpu, scheme=scheme, check=True)
    oracle.check_all()
    return oracle


def test_the_oracle_checks_branches_and_refreshes():
    oracle = run_checked()
    assert oracle.issues > 0
    assert oracle.branches > 0
    assert oracle.refreshes > 0
    assert oracle.warps_checked > oracle.branches


def test_an_off_by_one_anchor_is_named(monkeypatch):
    real = CriticalityPredictor.on_branch

    def late_anchor(self, warp, inst, diverged, all_taken, now=0.0):
        real(self, warp, inst, diverged=diverged, all_taken=all_taken, now=now)
        warp._cpl_due += 1  # the anchor's issue index, one too late
        warp._criticality = None

    monkeypatch.setattr(CriticalityPredictor, "on_branch", late_anchor)
    with pytest.raises(AssertionError, match="cpl_inst_disparity of warp"):
        run_checked()


def test_counting_scheduler_wait_is_named(monkeypatch):
    monkeypatch.setattr(Warp, "cpl_stall", property(lambda w: w.total_stall_cycles))
    with pytest.raises(AssertionError, match="cpl_stall of warp"):
        run_checked()
