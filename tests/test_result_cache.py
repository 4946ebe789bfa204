"""Persistent result cache: round trips, key invalidation, parallel sweeps."""

import dataclasses
import json
import os

import pytest

from repro.config import CacheConfig, GPUConfig
from repro.experiments import result_cache
from repro.experiments import runner
from repro.experiments.runner import run_scheme, run_sweep
from repro.gpu import GPU
from repro.memory.cache import CacheStats
from repro.stats.counters import (BlockSummary, RunResult, WarpSummary,
                                  result_from_dict)
from repro.workloads import make_workload

SCALE = 0.25
WL = "synthetic_imbalance"
#: A second valid value of each string-valued ``GPUConfig`` field.
OTHER_SPELLING = {"scheduler_name": "gto", "l1d_policy": "srrip",
                  "cacp_mode": "static", "sampling": "blocks:0.5"}


@pytest.fixture(autouse=True)
def fresh_memory_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


def _changed(value):
    """A value of ``value``'s type that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 3
    if value is None or isinstance(value, str):
        return f"{value}-changed"
    if isinstance(value, CacheStats):
        return dataclasses.replace(value, hits=value.hits + 1)
    if isinstance(value, list):
        return value[1:]
    if isinstance(value, dict):
        return {**value, "changed": 1}
    raise AssertionError(f"no changed value for {value!r}")


def _metrics(result):
    return (result.cycles, result.warp_instructions, result.thread_instructions,
            result.l1_stats.misses, result.l2_stats.misses, result.dram_accesses)


class TestRoundTrip:
    def test_disk_hit_after_memory_cache_cleared(self):
        first = run_scheme(WL, "cawa", scale=SCALE)
        assert len(list(result_cache.cache_dir().glob("*.json"))) >= 1
        runner.clear_cache()  # memory only; disk survives
        second = run_scheme(WL, "cawa", scale=SCALE)
        assert second.cell_serial == 0  # read from disk, not simulated
        assert second == first
        assert isinstance(second.blocks[0], BlockSummary)
        assert isinstance(second.blocks[0].warps[0], WarpSummary)

    def test_a_disk_hit_feeds_the_analyses(self):
        run_scheme(WL, "rr", scale=SCALE)
        runner.clear_cache()
        cached = run_scheme(WL, "rr", scale=SCALE)
        from repro.stats.disparity import critical_warp_of, max_block_disparity
        assert max_block_disparity(cached) >= 0.0
        assert critical_warp_of(cached.blocks[0]).execution_time >= 0.0
        json.dumps(cached.to_dict())  # a cached result still serializes

    def test_to_dict_from_dict_is_lossless(self):
        result = run_scheme(WL, "gto", scale=SCALE, use_cache=False,
                            persistent=False)
        clone = RunResult.from_dict(result.to_dict())
        assert _metrics(clone) == _metrics(result)
        assert clone.ipc == result.ipc
        assert [b.warp_execution_times() for b in clone.blocks] == \
               [b.warp_execution_times() for b in result.blocks]

    @pytest.mark.parametrize("made_by", ["launch", "run_scheme", "sampled"])
    def test_fresh_result_equals_its_round_trip(self, made_by):
        # Every result holds BlockSummary snapshots from birth, so the one
        # a launch returns equals what the disk cache would give back.
        if made_by == "launch":
            result = make_workload(WL, scale=SCALE).run(
                GPU(GPUConfig.default_sim()), scheme="gto")
        else:
            config = (GPUConfig.default_sim().with_sampling("blocks:0.5")
                      if made_by == "sampled" else None)
            result = run_scheme(WL, "gto", scale=SCALE, config=config,
                                use_cache=False)
        assert all(type(b) is BlockSummary for b in result.blocks)
        clone = result_from_dict(json.loads(json.dumps(result.to_dict())))
        assert type(clone) is type(result)
        assert clone == result

    def test_every_field_survives_the_round_trip(self):
        # to_dict / from_dict walk the fields: a field added to RunResult
        # is stored and loaded with no serializer edit.
        base = run_scheme(WL, "gto", scale=SCALE, use_cache=False,
                          persistent=False)
        for f in dataclasses.fields(RunResult):
            changed = dataclasses.replace(
                base, **{f.name: _changed(getattr(base, f.name))})
            clone = RunResult.from_dict(json.loads(json.dumps(changed.to_dict())))
            if f.name == "cell_serial":  # host bookkeeping, never stored
                assert "cell_serial" not in changed.to_dict()
                assert clone.cell_serial == 0
                continue
            assert getattr(clone, f.name) == getattr(changed, f.name), f.name
            assert clone == changed
            if f.compare:
                assert clone != base, f.name

    def test_a_payload_from_before_a_field_loads_with_its_default(self):
        result = run_scheme(WL, "rr", scale=SCALE, use_cache=False)
        data = result.to_dict()
        for name in ("frontend", "verified", "sampling", "skip_jumps"):
            del data[name]
        data["clock"] = "cycle"
        data["l1_stats"]["bypasses"] = 0
        loaded = RunResult.from_dict(data)
        assert (loaded.frontend, loaded.verified, loaded.sampling,
                loaded.skip_jumps) == ("execute", False, "off", 0)
        assert loaded == dataclasses.replace(
            result, frontend="execute", verified=False, skip_jumps=0)

    def test_oracle_builds_from_cached_blocks(self):
        run_scheme(WL, "rr", scale=SCALE)
        runner.clear_cache()
        oracle = runner.build_oracle(WL, scale=SCALE)
        assert oracle and all(t >= 0 for t in oracle.values())


class TestKeyInvalidation:
    def test_config_fingerprint_changes_key(self):
        a = GPUConfig.default_sim().fingerprint()
        b = GPUConfig.default_sim(num_sms=3).fingerprint()
        assert a != b
        assert (result_cache.cache_key(WL, "rr", 1.0, a)
                != result_cache.cache_key(WL, "rr", 1.0, b))

    def test_fingerprints_are_pinned(self):
        # On-disk result-cache keys and serve coalescing keys embed these:
        # adding or deleting a fingerprint-excluded field must not move them.
        # So must deleting a field hashed at its old default
        # (``GPUConfig.RETIRED_FINGERPRINT_DEFAULTS``).
        assert GPUConfig.default_sim().fingerprint() == "7a640cd6a2ca7459"
        assert GPUConfig.fermi_gtx480().fingerprint() == "dc923f8c647f33f2"
        assert GPUConfig().fingerprint() == "dc923f8c647f33f2"

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(GPUConfig)])
    def test_every_field_moves_the_fingerprint(self, name):
        # No field is excluded: the config holds only what changes a
        # result, so changing any one field is a different cache entry.
        cfg = GPUConfig.default_sim()
        value = getattr(cfg, name)
        if isinstance(value, CacheConfig):
            changed = dataclasses.replace(value, hit_latency=value.hit_latency + 1)
        elif isinstance(value, bool):
            changed = not value
        elif isinstance(value, int):
            changed = value * 2 or 1  # doubling keeps powers of two valid
        else:
            changed = OTHER_SPELLING[name]
        other = dataclasses.replace(cfg, **{name: changed})
        assert other.fingerprint() != cfg.fingerprint()

    def test_cycle_entry_served_for_skip_request(self):
        # An entry the retired per-cycle loop stored (it says so in its
        # ``clock`` key) satisfies a request today without re-simulating.
        first = run_scheme(WL, "rr", scale=SCALE)
        (entry,) = result_cache.cache_dir().glob("*.json")
        data = json.loads(entry.read_text(encoding="utf-8"))
        data["clock"] = "cycle"
        entry.write_text(json.dumps(data), encoding="utf-8")
        runner.clear_cache()  # memory only; the disk entry survives
        second = run_scheme(WL, "rr", scale=SCALE)
        # Same entry, untouched, and a result this process did not
        # simulate prove the cache hit.
        assert list(result_cache.cache_dir().glob("*.json")) == [entry]
        assert json.loads(entry.read_text(encoding="utf-8"))["clock"] == "cycle"
        assert second.cell_serial == 0
        assert _metrics(second) == _metrics(first)

    def test_version_changes_key(self, monkeypatch):
        key = result_cache.cache_key(WL, "rr", 1.0, "abc")
        monkeypatch.setattr(result_cache, "__version__", "999.0.0")
        assert result_cache.cache_key(WL, "rr", 1.0, "abc") != key

    def test_scale_and_scheme_change_key(self):
        fp = GPUConfig.default_sim().fingerprint()
        base = result_cache.cache_key(WL, "rr", 1.0, fp)
        assert result_cache.cache_key(WL, "rr", 0.5, fp) != base
        assert result_cache.cache_key(WL, "gto", 1.0, fp) != base
        assert result_cache.cache_key(WL, "rr", 1.0, fp, {"seed": 3}) != base
        assert (result_cache.cache_key(WL, "rr", 1.0, fp, {"seed": 3, "balanced": True})
                == result_cache.cache_key(WL, "rr", 1.0, fp, {"balanced": True, "seed": 3}))

    def test_stale_version_entry_misses(self, monkeypatch):
        run_scheme(WL, "rr", scale=SCALE)  # populate under current version
        runner.clear_cache()
        monkeypatch.setattr(result_cache, "__version__", "999.0.0")
        fp = GPUConfig.default_sim().fingerprint()
        key = result_cache.cache_key(WL, "rr", SCALE, fp)
        assert result_cache.load(key) is None


class TestRobustness:
    def test_corrupt_entry_is_a_miss_and_removed(self):
        result = run_scheme(WL, "rr", scale=SCALE)
        entries = list(result_cache.cache_dir().glob("*.json"))
        assert entries
        entries[0].write_text("{not json", encoding="utf-8")
        key = entries[0].stem
        assert result_cache.load(key) is None
        assert not entries[0].exists()
        # And run_scheme falls back to simulating.
        runner.clear_cache()
        again = run_scheme(WL, "rr", scale=SCALE)
        assert again.cycles == result.cycles

    @pytest.mark.parametrize("key, value", [("backend", "vector"),
                                            ("shards", 2)])
    def test_entry_written_with_removed_key_still_loads(self, key, value):
        # Entries stored while RunResult carried ``backend`` / ``shards``
        # provenance must keep serving: the key is ignored, not a
        # corrupt-entry miss (``clock``: test_cycle_entry_served_for_skip_request).
        result = run_scheme(WL, "rr", scale=SCALE)
        (entry,) = result_cache.cache_dir().glob("*.json")
        data = json.loads(entry.read_text(encoding="utf-8"))
        assert key not in data
        data[key] = value
        entry.write_text(json.dumps(data), encoding="utf-8")
        loaded = result_cache.load(entry.stem)
        assert loaded is not None and entry.exists()
        assert _metrics(loaded) == _metrics(result)
        assert not hasattr(loaded, key)

    @pytest.mark.parametrize("field", ["cycles", "warp_instructions",
                                       "thread_instructions", "dram_accesses"])
    @pytest.mark.parametrize("value", ["x", None, True])
    def test_non_numeric_count_is_a_miss_and_removed(self, field, value):
        # Valid JSON with a wrong-typed headline count is a corrupt entry,
        # never a RunResult that gets served.
        result = run_scheme(WL, "rr", scale=SCALE)
        (entry,) = result_cache.cache_dir().glob("*.json")
        data = json.loads(entry.read_text(encoding="utf-8"))
        data[field] = value
        entry.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(TypeError, match=field):
            result_from_dict(data)
        assert result_cache.load(entry.stem) is None
        assert not entry.exists()
        runner.clear_cache()
        assert run_scheme(WL, "rr", scale=SCALE).cycles == result.cycles

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv(result_cache.ENV_ENABLE, "0")
        run_scheme(WL, "rr", scale=SCALE)
        assert not list(result_cache.cache_dir().glob("*.json"))

    def test_clear_cache_disk_flag(self):
        run_scheme(WL, "rr", scale=SCALE)
        assert list(result_cache.cache_dir().glob("*.json"))
        runner.clear_cache(disk=True)
        assert not list(result_cache.cache_dir().glob("*.json"))

    def test_non_cacheable_runs_do_not_touch_disk(self):
        run_scheme("bfs", "rr", scale=SCALE, use_cache=False, balanced=True)
        run_scheme(WL, "rr", scale=SCALE, persistent=False)
        assert not list(result_cache.cache_dir().glob("*.json"))


class TestParallelSweep:
    def test_parallel_matches_serial(self):
        serial = run_sweep([WL], ["rr", "gto"], scale=SCALE,
                           use_cache=False, persistent=False)
        parallel = run_sweep([WL, "synthetic_divergence"], ["rr", "gto"],
                             scale=SCALE, jobs=2)
        for cell in serial:
            assert parallel[cell] == serial[cell]

    def test_disk_warm_sweep_forks_no_pool(self, monkeypatch):
        """Cells already on disk are JSON reads: the parent process loads
        them, and only misses would be worth a worker."""
        grid = ([WL, "synthetic_divergence"], ["rr", "gto"])
        cold = run_sweep(*grid, scale=SCALE)
        runner.clear_cache()  # memory only; every cell is on disk

        def no_pool(*args, **kwargs):
            raise AssertionError("a disk-warm sweep forked a process pool")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        warm = run_sweep(*grid, scale=SCALE, jobs=2)
        assert list(warm) == list(cold)
        for cell in cold:
            assert _metrics(warm[cell]) == _metrics(cold[cell]), cell
        # The loads are memoised like the workers' results.
        assert run_scheme(WL, "gto", scale=SCALE) is warm[(WL, "gto")]

    def test_parallel_workers_populate_disk_cache(self):
        run_sweep([WL], ["rr", "gto"], scale=SCALE, jobs=2)
        names = [p.name for p in result_cache.cache_dir().glob("*.json")]
        assert any(name.startswith(f"{WL}-rr-") for name in names)
        assert any(name.startswith(f"{WL}-gto-") for name in names)
