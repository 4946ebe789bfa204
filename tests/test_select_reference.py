"""Every scheduler's pick against its eager bookkeeping.

A scheduler slot stores one fact, the warp it issued last (``last``, written
by the SM); greedy targets, round-robin pointers and two-level's active
group are derived from it.  :class:`~tests.oracles.SelectReferenceOracle`
keeps that bookkeeping the way the schedulers once did and asserts after
every ``select`` that the scheme's min/max formulation over it picks the
same warp; ``tests/test_replay_signatures.py`` runs it on all pinned cells.
Here: it checks what it claims to, it names three broken derivations, and
(``slow``) it holds on every registry workload under every scheduler.
"""

from __future__ import annotations

import pytest

from repro import GPU, GPUConfig, apply_scheme
from repro.experiments.runner import clear_cache, run_scheme
from repro.scheduling.base import rotate
from repro.scheduling.gto import GTOScheduler
from repro.scheduling.lrr import LRRScheduler
from repro.scheduling.two_level import TwoLevelScheduler, _in_group
from repro.workloads import make_workload, workload_names
from tests.oracles import SelectReferenceOracle, SkipOracle

#: One scheme per distinct registered scheduler (``rr`` runs ``lrr``).
SCHEDULER_SCHEMES = ["rr", "gto", "two_level", "caws", "gcaws"]


def run_checked(scheme, name="bfs", scale=0.5):
    """One cell under the oracle.  At scale 0.5, bfs puts more than one
    fetch group of warps on a scheduler slot (at 0.25 it does not)."""
    gpu = GPU(apply_scheme(GPUConfig.default_sim(), scheme))
    oracle = SelectReferenceOracle(gpu)
    result = make_workload(name, scale=scale).run(gpu, scheme=scheme, check=True)
    return oracle, result


@pytest.mark.parametrize("scheme", ["rr", "gto", "two_level"])
def test_the_oracle_checks_every_select(scheme):
    oracle, result = run_checked(scheme)
    # Every select issues the warp it picks: one select per issue.
    assert oracle.selects == result.warp_instructions


def test_rotate_must_skip_the_last_warp(monkeypatch):
    def rotate_from_last(self, ready, now):
        last = self.last
        if last is not None:
            for warp in ready:
                if warp.dynamic_id >= last.dynamic_id:
                    return warp
        return ready[0]

    monkeypatch.setattr(LRRScheduler, "select", rotate_from_last)
    with pytest.raises(AssertionError, match=r"select of SM\d slot \d \(lrr\)"):
        run_checked("rr")


def test_greedy_must_test_membership(monkeypatch):
    monkeypatch.setattr(GTOScheduler, "select",
                        lambda self, ready, now: self.last or ready[0])
    with pytest.raises(AssertionError, match=r"select of SM\d slot \d \(gto\)"):
        run_checked("gto")


def test_two_level_must_keep_its_group(monkeypatch):
    def oldest_group(self, ready, now):
        return rotate(_in_group(ready, ready[0]), self.last)

    monkeypatch.setattr(TwoLevelScheduler, "select", oldest_group)
    with pytest.raises(AssertionError, match=r"select of SM\d slot \d \(two_level\)"):
        run_checked("two_level")


@pytest.fixture(scope="module")
def trace_store(tmp_path_factory):
    """One trace store for the grid: each workload is recorded once."""
    return str(tmp_path_factory.mktemp("select_reference"))


@pytest.mark.slow
@pytest.mark.parametrize("workload", workload_names())
@pytest.mark.parametrize("scheme", SCHEDULER_SCHEMES)
def test_grid_cell(workload, scheme, trace_store, monkeypatch):
    """Every registry workload x every scheduler, under the select
    reference and the skip-loop oracle."""
    monkeypatch.setenv("REPRO_CACHE_DIR", trace_store)
    if scheme == "caws":
        clear_cache()
    selects = SelectReferenceOracle.on_every_launch(monkeypatch)
    skips = SkipOracle.on_every_launch(monkeypatch)
    result = run_scheme(workload, scheme, scale=0.25, config=GPUConfig.default_sim(),
                        use_cache=False, persistent=False)
    assert result.cycles > 0
    assert selects and all(oracle.selects for oracle in selects)
    assert sum(oracle.ticks for oracle in skips) > 0
