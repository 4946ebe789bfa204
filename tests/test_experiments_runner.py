"""Tests for the experiment harness (runner, sweeps, oracle, figures)."""

import pytest

from repro.config import GPUConfig
from repro.experiments import result_cache, run_figure, runner
from repro.experiments.fig12 import PriorityTrace
from repro.experiments.runner import (
    _dedupe,
    build_oracle,
    run_scheme,
    run_sweep,
    sweep_table,
)
from repro.obs import record_events
from repro.stats.accuracy import CriticalityAccuracyTracker
from repro.stats.reuse import ReuseDistanceProfiler


@pytest.fixture(autouse=True)
def fresh_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


SCALE = 0.25  # keep harness tests fast


class TestRunScheme:
    def test_returns_result_with_blocks(self):
        result = run_scheme("synthetic_imbalance", "rr", scale=SCALE)
        assert result.cycles > 0
        assert result.blocks

    def test_results_are_memoized(self):
        a = run_scheme("synthetic_imbalance", "rr", scale=SCALE)
        b = run_scheme("synthetic_imbalance", "rr", scale=SCALE)
        assert a is b

    def test_cache_respects_scheme(self):
        a = run_scheme("synthetic_imbalance", "rr", scale=SCALE)
        b = run_scheme("synthetic_imbalance", "gto", scale=SCALE)
        assert a is not b

    def test_workload_kwargs_key_the_cache(self):
        a = run_scheme("bfs", "rr", scale=SCALE)
        b = run_scheme("bfs", "rr", scale=SCALE, balanced=True)
        assert a is not b

    def test_accuracy_tracker_attaches(self):
        accuracy = runner.cell_report("synthetic_imbalance", "cawa", SCALE,
                                      None, CriticalityAccuracyTracker)
        assert 0.0 <= accuracy <= 1.0

    def test_reuse_profiler_attaches(self):
        profiler = ReuseDistanceProfiler()
        result, _ = record_events("synthetic_memstress", "rr", scale=SCALE,
                                  collectors=(profiler,), events="ring:1")
        assert profiler.critical.references + profiler.non_critical.references > 0
        assert result.cycles == run_scheme("synthetic_memstress", "rr",
                                           scale=SCALE).cycles


class TestCellReport:
    """``cell_report``: a collector's report of a cell, cached beside the
    cell's result, which it does not change."""

    CELL = ("synthetic_imbalance", "cawa", SCALE)

    def _report(self):
        return runner.cell_report(*self.CELL, None, PriorityTrace)

    @staticmethod
    def _entries():
        return sorted(result_cache.cache_dir().glob(
            f"*.{PriorityTrace.__qualname__}.*.json"))

    def test_a_miss_keeps_the_result(self):
        workload, scheme, scale = self.CELL
        before = runner.cells_simulated()
        report = self._report()
        assert report and runner.cells_simulated() == before + 1
        result = run_scheme(workload, scheme, scale=scale)
        assert runner.cells_simulated() == before + 1
        assert result.cell_serial == before + 1
        runner.clear_cache()
        assert run_scheme(workload, scheme, scale=scale) == result
        assert runner.cells_simulated() == before + 1

    def test_a_warm_report_simulates_nothing(self):
        cold = self._report()
        runner.clear_cache()
        before = runner.cells_simulated()
        assert self._report() == cold
        assert runner.cells_simulated() == before

    @pytest.mark.parametrize("corrupt", ["{not json", "[[1, 2]]"])
    def test_a_corrupt_entry_is_a_miss(self, monkeypatch, corrupt):
        cold = self._report()
        [entry] = self._entries()
        entry.write_text(corrupt, encoding="utf-8")
        runner.clear_cache()
        before = runner.cells_simulated()
        # Nothing is stored again, so what is left on disk is the miss's doing.
        monkeypatch.setattr(result_cache, "store", lambda key, entry: None)
        assert self._report() == cold
        assert runner.cells_simulated() == before + 1
        assert not entry.exists()

    def test_an_edited_collector_misses(self, monkeypatch):
        cold = self._report()
        runner.clear_cache()
        source = runner.inspect.getsource
        monkeypatch.setattr(runner.inspect, "getsource",
                            lambda module: source(module) + "# edited\n")
        runner._report_suffix.cache_clear()
        before = runner.cells_simulated()
        try:
            assert self._report() == cold
        finally:
            runner._report_suffix.cache_clear()
        assert runner.cells_simulated() == before + 1
        assert len(self._entries()) == 2

    def test_stats_count_reports_apart(self):
        self._report()
        stats = result_cache.stats()
        assert stats["entries"] == 1
        assert stats["reports"]["entries"] == 1
        [entry] = self._entries()
        assert stats["reports"]["bytes"] == entry.stat().st_size


class TestMemoIsBounded:
    """``runner._CACHE`` in a process that never calls ``clear_cache`` (a
    ``repro serve`` pool worker): entries are summaries, and there are at
    most ``_CACHE_CAP`` of them."""

    TINY = "synthetic_imbalance"

    @staticmethod
    def live(kind):
        import gc

        gc.collect()
        return sum(isinstance(obj, kind) for obj in gc.get_objects())

    def test_entries_hold_summaries_not_the_launch_graph(self):
        from repro.simt.block import ThreadBlock
        from repro.simt.warp import Warp
        from repro.stats.counters import BlockSummary

        blocks, warps = self.live(ThreadBlock), self.live(Warp)
        results = [run_scheme(self.TINY, s, scale=SCALE) for s in ("rr", "gto", "cawa")]
        for result in results:
            assert result.blocks
            assert all(type(b) is BlockSummary for b in result.blocks)
        # Nothing memoised pins a ThreadBlock or a Warp (~0.6 MB a cell on
        # bfs @ 0.5): the launches' graphs are garbage already.
        assert (self.live(ThreadBlock), self.live(Warp)) == (blocks, warps)
        assert list(runner._CACHE.values()) == results

    def test_n_plus_k_distinct_cells_leave_n_entries(self, monkeypatch):
        import pickle

        monkeypatch.setattr(runner, "_CACHE_CAP", 4)
        scales = [SCALE - i * 1e-6 for i in range(7)]  # N + K distinct cells
        results = [run_scheme(self.TINY, "rr", scale=s, persistent=False)
                   for s in scales]
        assert len(runner._CACHE) == 4
        assert list(runner._CACHE.values()) == results[-4:]
        assert sum(len(pickle.dumps(r)) for r in runner._CACHE.values()) < 4 * 16384
        # A repeated cell is still a hit, and a hit is the entry used last...
        assert run_scheme(self.TINY, "rr", scale=scales[3], persistent=False) is results[3]
        run_scheme(self.TINY, "gto", scale=SCALE, persistent=False)
        assert results[3] in runner._CACHE.values()
        assert results[4] not in runner._CACHE.values()
        # ...while an evicted one is simply run again.
        again = run_scheme(self.TINY, "rr", scale=scales[0], persistent=False)
        assert again is not results[0] and again.cycles == results[0].cycles

    def test_a_checking_caller_is_never_served_an_unverified_entry(self):
        unchecked = run_scheme(self.TINY, "rr", scale=SCALE, check=False,
                               persistent=False)
        assert not unchecked.verified
        assert run_scheme(self.TINY, "rr", scale=SCALE, check=False,
                          persistent=False) is unchecked
        checked = run_scheme(self.TINY, "rr", scale=SCALE, persistent=False)
        assert checked is not unchecked and checked.verified
        assert len(runner._CACHE) == 1
        for check in (True, False):
            assert run_scheme(self.TINY, "rr", scale=SCALE, check=check,
                              persistent=False) is checked

    def test_parallel_sweep_results_enter_the_same_bounded_memo(self, monkeypatch):
        monkeypatch.setattr(runner, "_CACHE_CAP", 2)
        results = run_sweep([self.TINY], ["rr", "gto", "cawa"], scale=SCALE,
                            jobs=2)
        assert len(results) == 3 and len(runner._CACHE) == 2
        assert run_scheme(self.TINY, "cawa", scale=SCALE) is results[(self.TINY, "cawa")]


class TestOracle:
    def test_oracle_covers_all_warps(self):
        oracle = build_oracle("synthetic_imbalance", scale=SCALE)
        result = run_scheme("synthetic_imbalance", "rr", scale=SCALE)
        expected_keys = {
            (block.block_id, warp.warp_id_in_block)
            for block in result.blocks
            for warp in block.warps
        }
        assert set(oracle) == expected_keys
        assert all(t >= 0 for t in oracle.values())

    def test_oracle_is_keyed_on_the_profiling_device(self):
        """Per-warp times are a property of (workload, scale, device): a
        second device must not be handed the first one's profile."""
        narrow = GPUConfig.default_sim(num_sms=1, dram_latency=600)
        default = build_oracle("synthetic_imbalance", SCALE, GPUConfig.default_sim())
        slow = build_oracle("synthetic_imbalance", SCALE, narrow)
        assert slow is not default
        profiled = run_scheme("synthetic_imbalance", "rr", scale=SCALE, config=narrow)
        warp = profiled.blocks[0].warps[0]
        assert slow[(0, 0)] == warp.execution_time != default[(0, 0)]
        # Sampling still shares one profile: no second profiling run.
        before = runner.cells_simulated()
        assert build_oracle("synthetic_imbalance", SCALE,
                            narrow.with_sampling("blocks:0.5")) == slow
        assert runner.cells_simulated() == before

    def test_oracle_profiles_the_workload_variant_being_run(self, monkeypatch):
        """Workload kwargs reach the profiling run: the oracle the caws
        schedulers are built with — whether the cell executes or replays —
        is that input's own rr per-warp times."""
        from repro.gpu import gpu as gpu_mod

        oracles = []
        real_make = gpu_mod.make_scheduler

        def spy(name, **kwargs):
            if "oracle" in kwargs and kwargs["oracle"] not in oracles:
                oracles.append(kwargs["oracle"])
            return real_make(name, **kwargs)

        monkeypatch.setattr(gpu_mod, "make_scheduler", spy)
        run_scheme("bfs", "caws", scale=SCALE, balanced=True)
        own = run_scheme("bfs", "rr", scale=SCALE, balanced=True)
        (oracle,) = oracles
        assert oracle == {
            (block.block_id, warp.warp_id_in_block): warp.execution_time
            for block in own.blocks
            for warp in block.warps
        }
        assert oracle != build_oracle("bfs", SCALE)

    def test_caws_scheme_uses_oracle(self):
        result = run_scheme("synthetic_imbalance", "caws", scale=SCALE)
        assert result.cycles > 0


class TestSweep:
    def test_sweep_grid_complete(self):
        results = run_sweep(["synthetic_imbalance"], ["rr", "gto"], scale=SCALE)
        assert set(results) == {("synthetic_imbalance", "rr"),
                                ("synthetic_imbalance", "gto")}

    def test_sweep_table_renders(self):
        results = run_sweep(["synthetic_imbalance"], ["rr", "gto"], scale=SCALE)
        text = sweep_table(results, ["synthetic_imbalance"], ["rr", "gto"],
                           lambda r: r.ipc, "workload")
        assert "synthetic_imbalance" in text
        assert "rr" in text and "gto" in text


class TestParallelSweepDedupe:
    """Grid cells resolving to one execution fingerprint run once."""

    def test_duplicate_cells_collapse_to_one_group(self):
        base = GPUConfig.default_sim()
        groups = _dedupe([("bfs", "rr"), ("bfs", "rr"), ("bfs", "gto")], base)
        assert groups == [[("bfs", "rr")], [("bfs", "gto")]]

    def test_distinct_schemes_stay_separate(self):
        base = GPUConfig.default_sim()
        groups = _dedupe([("bfs", "rr"), ("bfs", "cawa"), ("kmeans", "rr")], base)
        assert len(groups) == 3
        assert all(len(g) == 1 for g in groups)

    def test_alias_schemes_share_one_execution(self, monkeypatch):
        # Register a scheme alias that resolves to rr's exact config; the
        # grid must dispatch one simulation and fan it out to both cells.
        from repro.core import cawa

        monkeypatch.setitem(cawa.SCHEMES, "rr_alias", cawa.SCHEMES["rr"])
        base = GPUConfig.default_sim()
        groups = _dedupe([("bfs", "rr"), ("bfs", "rr_alias")], base)
        assert groups == [[("bfs", "rr"), ("bfs", "rr_alias")]]

    def test_parallel_sweep_fans_alias_results_out(self, monkeypatch):
        from repro.core import cawa

        monkeypatch.setitem(cawa.SCHEMES, "rr_alias", cawa.SCHEMES["rr"])
        wl = "synthetic_imbalance"
        results = run_sweep([wl], ["rr", "rr_alias"], scale=SCALE, jobs=2)
        assert results[(wl, "rr")].cycles == results[(wl, "rr_alias")].cycles
        # Both cells got their own disk-cache entries, so later serial
        # calls under either name hit without re-simulating.
        base = GPUConfig.default_sim()
        for scheme in ("rr", "rr_alias"):
            key = result_cache.cache_key(
                wl, scheme, SCALE,
                cawa.apply_scheme(base, scheme).fingerprint(),
            )
            assert result_cache.load(key) is not None

    def test_parallel_sweep_with_duplicate_scheme_list(self):
        wl = "synthetic_imbalance"
        results = run_sweep([wl], ["rr", "rr"], scale=SCALE, jobs=2)
        assert set(results) == {(wl, "rr")}
        assert results[(wl, "rr")].cycles > 0


class TestFigureModules:
    """Smoke tests: every figure runs through ``run_figure`` at tiny scale
    and renders."""

    def test_fig01(self):
        from repro.experiments import fig01
        data = run_figure(1, scale=SCALE, workloads=["synthetic_imbalance"])
        assert "synthetic_imbalance" in data
        assert "Figure 1" in fig01.render(data)

    def test_fig04(self):
        from repro.experiments import fig04
        data = run_figure(4, scale=SCALE, workload="synthetic_imbalance")
        assert set(data) == set(fig04.SCHEDULERS)
        assert "Figure 4" in fig04.render(data)

    def test_fig09_and_summary(self):
        from repro.experiments import fig09
        data = run_figure(9, scale=SCALE, workloads=["kmeans"],
                          schemes=["gto"])
        assert set(data) == {("kmeans", "gto")}
        summary = fig09.summarize(data)
        assert ("Sens", "gto") in summary

    def test_fig11(self):
        data = run_figure(11, scale=SCALE, workloads=["needle"])
        assert data["needle"] == 1.0

    def test_fig15(self):
        data = run_figure(15, scale=SCALE, workloads=["kmeans"])
        assert ("kmeans", "rr") in data and ("kmeans", "cawa") in data

    def test_fig02(self):
        from repro.experiments import fig02
        data = run_figure(2, scale=SCALE)
        assert len(data["a_exec_time"]) >= 2
        assert "Figure 2" in fig02.render(data)

    def test_fig03(self):
        from repro.experiments import fig03
        data = run_figure(3, scale=SCALE)
        assert 0.0 <= data["critical_evicted_before_reuse"] <= 1.0
        assert "Figure 3" in fig03.render(data)

    def test_fig10(self):
        from repro.experiments import fig10
        data = run_figure(10, scale=SCALE, workloads=["kmeans"])
        assert all(value >= 0 for value in data.values())
        assert "Figure 10" in fig10.render(data)

    def test_fig12(self):
        from repro.experiments import fig12
        data = run_figure(12, scale=SCALE)
        assert set(data) == {"rr", "gcaws"}
        assert "Figure 12" in fig12.render(data)

    def test_fig13(self):
        from repro.experiments import fig13
        data = run_figure(13, scale=SCALE, workloads=["needle"])
        assert set(s for _, s in data) == set(fig13.SCHEMES)
        assert "Figure 13" in fig13.render(data)

    def test_fig14(self):
        from repro.experiments import fig14
        data = run_figure(14, scale=SCALE, workloads=["kmeans"])
        assert all(value > 0 for value in data.values())
        assert "Figure 14" in fig14.render(data)

    def test_fig16_and_17(self):
        from repro.experiments import fig16, fig17
        data = run_figure(17, scale=SCALE, workloads=["kmeans"])
        gains = fig17.cacp_gains(data)
        assert set(gains) == {pair[0] for pair in fig16.PAIRINGS}
        assert "Figure 17" in fig17.render(data)
        mpki = run_figure(16, scale=SCALE, workloads=["kmeans"])
        assert "Figure 16" in fig16.render(mpki)

    def test_tables(self):
        from repro.experiments import tables
        assert "Table 1" in tables.table1()
        assert "Table 2" in tables.table2()


def test_a_warm_figure_simulates_nothing():
    """Figs 2, 3, 11 and 12 (workload kwargs, and reports of three
    collectors) come back from the disk cache: a second pass with the memo
    cleared simulates no cell and gives equal data."""
    figures = (2, 3, 11, 12)
    cold = [run_figure(number, scale=SCALE) for number in figures]
    runner.clear_cache()
    before = runner.cells_simulated()
    assert [run_figure(number, scale=SCALE) for number in figures] == cold
    assert runner.cells_simulated() == before
