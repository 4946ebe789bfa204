"""A sweep is one plan, whatever ``jobs`` is.

``run_sweep`` answers what the caches hold, simulates each execution once
(a scheme alias shares its twin's), records each missing trace once, and
draws the rest from one queue on ``jobs`` processes, the calling one
included.  These tests pin that ``jobs`` changes none of the numbers,
that the calling process works rather than waits, and when the plan stays
in one process.  A grid figure's cells are such a plan too.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro import trace as trace_mod
from repro.config import GPUConfig
from repro.core import cawa
from repro.experiments import result_cache, run_figure, runner
from repro.experiments.runner import _dedupe, _Plan, run_sweep
from repro.trace import store as trace_store

SCALE = 0.5
WORKLOADS = ["synthetic_imbalance", "synthetic_divergence"]
SCHEMES = ["rr", "gto", "cawa", "caws", "rr_alias"]


@pytest.fixture(autouse=True)
def _fresh_memo(monkeypatch):
    # An alias resolving to rr's exact config: one execution, two cells.
    monkeypatch.setitem(cawa.SCHEMES, "rr_alias", cawa.SCHEMES["rr"])
    runner.clear_cache()
    yield
    runner.clear_cache()


@pytest.fixture
def parent_cells(monkeypatch):
    """Cells ``simulate_cell`` simulated in this process (a forked
    helper's calls go to its own copy of the list)."""
    seen = []
    simulate = runner.simulate_cell

    def spy(workload, scheme, *args, **kwargs):
        seen.append((workload, scheme))
        return simulate(workload, scheme, *args, **kwargs)

    monkeypatch.setattr(runner, "simulate_cell", spy)
    return seen


def numbers(result):
    return (result.cycles, result.warp_instructions,
            dataclasses.astuple(result.l1_stats),
            dataclasses.astuple(result.l2_stats), result.dram_accesses,
            result.verified, result.recorded)


def cold_sweep(jobs, cache_dir, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    runner.clear_cache()
    return run_sweep(WORKLOADS, SCHEMES, scale=SCALE, jobs=jobs)


def test_one_and_two_processes_give_the_same_numbers(tmp_path, monkeypatch):
    one = cold_sweep(1, tmp_path / "one", monkeypatch)
    two = cold_sweep(2, tmp_path / "two", monkeypatch)
    assert list(one) == list(two) == [(w, s) for w in WORKLOADS for s in SCHEMES]
    for cell in one:
        assert numbers(one[cell]) == numbers(two[cell]), cell
    for workload in WORKLOADS:
        assert two[(workload, "rr_alias")] is two[(workload, "rr")]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_cold_sweep_records_each_trace_once(jobs):
    results = run_sweep(WORKLOADS, SCHEMES, scale=SCALE, jobs=jobs)
    recorded = [cell for cell, r in results.items() if r.recorded]
    # rr is each workload's first cell; its alias shares the result.
    assert recorded == [(w, s) for w in WORKLOADS for s in ("rr", "rr_alias")]
    assert trace_store.stats()["entries"] == len(WORKLOADS)
    assert all(trace_mod.trace_path(w, SCALE, GPUConfig.default_sim()).exists()
               for w in WORKLOADS)


def test_the_calling_process_works(parent_cells):
    results = run_sweep(WORKLOADS, SCHEMES, scale=SCALE, jobs=2)
    executions = len(_dedupe(results, GPUConfig.default_sim()))
    assert 1 <= len(parent_cells) < executions


def test_more_helpers_than_cores_under_fast_thread_switches():
    """Three helpers and a 10 us switch interval: a lost update to the
    queue the caller shares with the pool's callbacks would run a cell
    twice, drop one, or hang."""
    schemes = ["rr", "gto", "cawa", "gcaws", "two_level", "rr+cacp"]
    start, done = runner.cells_simulated(), {}

    def sweep():
        done["results"] = run_sweep(WORKLOADS, schemes, scale=SCALE, jobs=4)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        caller = threading.Thread(target=sweep, daemon=True)
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert len(done["results"]) == runner.cells_simulated() - start == 12


def test_helper_cells_are_memoised_and_numbered_here():
    start = runner.cells_simulated()
    results = run_sweep(WORKLOADS, ["rr", "gto"], scale=SCALE, jobs=2)
    assert runner.cells_simulated() == start + len(results)
    assert all(r.cell_serial > start for r in results.values())
    for (workload, scheme), result in results.items():
        assert runner.run_scheme(workload, scheme, scale=SCALE) is result


def test_one_process_simulates_an_alias_once(parent_cells):
    wl = WORKLOADS[0]
    results = run_sweep([wl], ["rr", "rr_alias"], scale=SCALE, jobs=1)
    assert parent_cells == [(wl, "rr")]
    assert results[(wl, "rr_alias")] is results[(wl, "rr")]
    base = GPUConfig.default_sim()
    for scheme in ("rr", "rr_alias"):
        key = result_cache.cache_key(
            wl, scheme, SCALE, cawa.apply_scheme(base, scheme).fingerprint())
        assert result_cache.load(key) is not None, scheme


def _no_pool(*args, **kwargs):
    raise AssertionError("the sweep forked helpers")


def test_stays_in_process_with_the_disk_cache_off(monkeypatch, parent_cells):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    results = run_sweep(WORKLOADS, ["rr", "gto"], scale=SCALE, jobs=2)
    assert sorted(parent_cells) == sorted(results)


def test_one_miss_stays_in_process(monkeypatch, parent_cells):
    run_sweep(WORKLOADS[:1], ["rr"], scale=SCALE)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)
    results = run_sweep(WORKLOADS[:1], ["rr", "gto"], scale=SCALE, jobs=2)
    assert parent_cells == [(WORKLOADS[0], "rr"), (WORKLOADS[0], "gto")]
    assert len(results) == 2


def test_the_plan_orders_recording_and_profiling_first():
    wl, warm = WORKLOADS
    run_sweep([warm], ["rr"], scale=SCALE, jobs=1)  # warm has its trace
    cells = [(wl, "caws"), (wl, "gto"), (wl, "rr"), (warm, "gto"), (warm, "caws")]
    units = _dedupe(cells, GPUConfig.default_sim())
    plan = _Plan(units, SCALE, GPUConfig.default_sim(), None, True)
    # rr records wl's trace (the caws cell waits for it as its profile),
    # so every other cell of wl waits for it; warm's cells need nothing
    # but warm's own rr, which is not in this grid.
    assert plan.recorders == {2}
    assert plan.after == [{2}, {2}, set(), set(), set()]
    assert sorted(plan.ready) == [2, 3, 4]
    assert plan._take() == 2  # the recording unit first,
    plan._done(2, 0.5)
    assert plan._take() == 3  # then a workload none of whose cells ran,
    plan._done(3, 0.1)
    assert [plan._take() for _ in range(3)] == [0, 1, 4]  # then the costliest


def test_removed_knobs_name_jobs():
    for knob in ({"parallel": True}, {"max_workers": 2}):
        with pytest.raises(TypeError, match="jobs"):
            run_sweep(WORKLOADS, ["rr"], scale=SCALE, **knob)
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(WORKLOADS, ["rr"], scale=SCALE, jobs=0)


def test_a_figure_is_the_same_on_one_and_two_processes(tmp_path, monkeypatch):
    def cold_figure(jobs):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"jobs{jobs}"))
        runner.clear_cache()
        return run_figure(16, scale=0.25, workloads=["kmeans"], jobs=jobs)

    assert cold_figure(1) == cold_figure(2)


def test_figure_10_reuses_figure_9s_grid():
    start = runner.cells_simulated()
    run_figure(9, scale=SCALE, workloads=WORKLOADS)
    assert runner.cells_simulated() - start == 2 * 4
    start = runner.cells_simulated()
    run_figure(10, scale=SCALE, workloads=WORKLOADS)
    assert runner.cells_simulated() == start
