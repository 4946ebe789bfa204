"""Tests for repro.config (Table 1 parameters and validation)."""

import dataclasses
import hashlib
import json
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, GPUConfig, _validate_fingerprint_spec
from repro.errors import ConfigError
from repro.scheduling.registry import SCHEDULERS


class TestCacheConfig:
    def test_size_bytes(self):
        cfg = CacheConfig(sets=8, ways=16, line_size=128)
        assert cfg.size_bytes == 16 * 1024  # the paper's 16KB L1D

    def test_set_index_wraps(self):
        cfg = CacheConfig(sets=8, ways=4, line_size=128)
        assert cfg.set_index(0) == 0
        assert cfg.set_index(128) == 1
        assert cfg.set_index(128 * 8) == 0

    def test_line_address_alignment(self):
        cfg = CacheConfig(sets=8, ways=4, line_size=128)
        assert cfg.line_address(130) == 128
        assert cfg.line_address(127) == 0
        assert cfg.line_address(128) == 128

    def test_rejects_nonpositive_sets(self):
        with pytest.raises(ConfigError):
            CacheConfig(sets=0, ways=4)
        with pytest.raises(ConfigError):
            CacheConfig(sets=-8, ways=4)

    def test_non_power_of_two_sets_allowed_for_banked_l2(self):
        cfg = CacheConfig(sets=384, ways=16, line_size=128)
        assert cfg.size_bytes == 768 * 1024

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigError):
            CacheConfig(sets=8, ways=4, line_size=100)

    def test_rejects_bad_critical_ways(self):
        with pytest.raises(ConfigError):
            CacheConfig(sets=8, ways=4, critical_ways=5)

    def test_rejects_zero_ways(self):
        with pytest.raises(ConfigError):
            CacheConfig(sets=8, ways=0)


class TestGPUConfig:
    def test_fermi_table1_values(self):
        cfg = GPUConfig.fermi_gtx480()
        assert cfg.num_sms == 15
        assert cfg.max_warps_per_sm == 48
        assert cfg.max_blocks_per_sm == 8
        assert cfg.num_schedulers_per_sm == 2
        assert cfg.registers_per_sm == 32768
        assert cfg.shared_mem_per_sm == 48 * 1024
        assert cfg.warp_size == 32
        assert cfg.l1d.size_bytes == 16 * 1024
        assert cfg.l1d.sets == 8 and cfg.l1d.ways == 16
        assert cfg.l2_latency == 120
        assert cfg.dram_latency == 220
        assert cfg.l2.size_bytes == 768 * 1024  # Table 1: 768KB unified L2
        assert cfg.l2_banks == 6

    def test_default_sim_preserves_l1_geometry(self):
        cfg = GPUConfig.default_sim()
        assert cfg.l1d.sets == 8
        assert cfg.l1d.ways == 16
        assert cfg.l1d.line_size == 128
        assert cfg.num_schedulers_per_sm == 2

    def test_with_scheduler(self):
        cfg = GPUConfig.default_sim().with_scheduler("gto")
        assert cfg.scheduler_name == "gto"

    def test_with_cacp_default_half_ways(self):
        cfg = GPUConfig.default_sim().with_cacp(True)
        assert cfg.use_cacp
        assert cfg.l1d.critical_ways == cfg.l1d.ways // 2

    def test_with_cacp_disable(self):
        cfg = GPUConfig.default_sim().with_cacp(True).with_cacp(False)
        assert not cfg.use_cacp
        assert cfg.l1d.critical_ways == 0

    def test_rejects_bad_warp_size(self):
        with pytest.raises(ConfigError):
            GPUConfig(warp_size=33)

    def test_rejects_zero_sms(self):
        with pytest.raises(ConfigError):
            GPUConfig(num_sms=0)

    def test_rejects_unknown_cacp_mode(self):
        # Refused when the config is built, under every scheme: the mode
        # is hashed even where CACP is off, so a typo would key its own
        # results (and fail only at device build under CACP).
        with pytest.raises(ConfigError, match=r"\['priority', 'static'\]"):
            GPUConfig.default_sim(cacp_mode="bogus")
        with pytest.raises(ConfigError, match="bogus"):
            dataclasses.replace(GPUConfig.default_sim(), cacp_mode="bogus")
        # The removed UCP-style mode is refused by name, with its reason.
        with pytest.raises(ConfigError,
                           match=r"'dynamic' was removed: .*\(EXPERIMENTS.md, Ablations\)"):
            GPUConfig.default_sim(cacp_mode="dynamic")
        for mode in ("priority", "static"):
            assert GPUConfig.default_sim(cacp_mode=mode).cacp_mode == mode


class TestRemovedBackendKnob:
    """There is one engine: the ``backend`` selector is gone, loudly."""

    def test_backend_is_not_a_config_field(self):
        assert not hasattr(GPUConfig.default_sim(), "with_backend")
        with pytest.raises(TypeError, match="backend"):
            GPUConfig(backend="vector")


class TestRemovedShardsKnob:
    """One process per simulation: the ``shards`` selector is gone, loudly."""

    def test_shards_is_not_a_config_field(self):
        assert not hasattr(GPUConfig.default_sim(), "with_shards")
        with pytest.raises(TypeError, match="shards"):
            GPUConfig(shards=2)

    def test_run_scheme_and_run_sweep_refuse_shards(self):
        from repro.experiments.runner import run_scheme, run_sweep

        # No longer a run_scheme option: it falls through to the workload
        # constructor, which does not take it either.
        with pytest.raises(TypeError, match="shards"):
            run_scheme("bfs", "gto", scale=0.25, shards=2,
                       use_cache=False, persistent=False)
        with pytest.raises(TypeError, match="shards"):
            run_sweep(["bfs"], ["gto"], scale=0.25, shards=2)


class TestRemovedClockKnob:
    """One device loop: the ``clock`` selector and the ``check_cpl_bounds``
    debug field are gone, loudly, and what they left behind still loads."""

    def test_clock_is_not_a_config_field(self):
        assert not hasattr(GPUConfig.default_sim(), "with_clock")
        with pytest.raises(TypeError, match="clock"):
            GPUConfig(clock="cycle")

    def test_check_cpl_bounds_is_not_a_config_field(self):
        # tests/test_cpl_bounds_runtime.py installs the checked predictor.
        with pytest.raises(TypeError, match="check_cpl_bounds"):
            GPUConfig(check_cpl_bounds=True)

    def test_serve_device_clock_is_refused(self):
        from repro.serve.jobs import JobSpec, JobSpecError

        # The server answers a JobSpecError with a 400 carrying its text.
        with pytest.raises(JobSpecError) as exc:
            JobSpec.from_payload({"kind": "run", "workload": "bfs",
                                  "device": {"clock": "cycle"}})
        assert str(exc.value).startswith("the 'device' field was removed")

    def test_result_payload_with_clock_loads(self):
        from repro.experiments.runner import run_scheme
        from repro.stats.counters import RunResult

        result = run_scheme("synthetic_imbalance", "rr", scale=0.25,
                            use_cache=False, persistent=False)
        payload = result.to_dict()
        assert "clock" not in payload
        payload["clock"] = "cycle"
        loaded = RunResult.from_dict(payload)
        assert loaded == RunResult.from_dict(result.to_dict())
        assert not hasattr(loaded, "clock")


class TestRemovedFrontendKnob:
    """The trace store is the runner's only path: the ``frontend`` selector
    is gone, loudly; the frozen ledger's ``with_frontend("trace")`` and
    stored results of either provenance still work."""

    @pytest.mark.parametrize("build", [GPUConfig, GPUConfig.default_sim,
                                       GPUConfig.fermi_gtx480])
    def test_frontend_is_not_a_config_field(self, build):
        with pytest.raises(TypeError, match="frontend"):
            build(frontend="trace")

    def test_with_frontend_is_a_shim(self):
        cfg = GPUConfig.default_sim()
        assert cfg.with_frontend("trace") is cfg
        for value in ("execute", "hybrid"):
            with pytest.raises(ConfigError, match="frontend knob is gone"):
                cfg.with_frontend(value)

    def test_serve_device_frontend_is_refused(self):
        from repro.serve.jobs import JobSpec, JobSpecError

        # The server answers a JobSpecError with a 400 carrying its text.
        with pytest.raises(JobSpecError) as exc:
            JobSpec.from_payload({"kind": "run", "workload": "bfs",
                                  "device": {"frontend": "execute"}})
        assert str(exc.value).startswith("the 'device' field was removed")

    def test_result_payload_recorded_in_place_loads(self):
        from repro.experiments.runner import run_scheme
        from repro.stats.counters import RunResult

        result = run_scheme("synthetic_imbalance", "rr", scale=0.25,
                            use_cache=False, persistent=False)
        payload = result.to_dict()
        assert payload["frontend"] == "trace"
        payload["frontend"] = "execute"
        payload["trace_id"] = None
        loaded = RunResult.from_dict(payload)
        assert (loaded.frontend, loaded.trace_id) == ("execute", None)
        assert loaded.cycles == result.cycles
        assert loaded.l1_stats == result.l1_stats


class TestRemovedEventsKnob:
    """Event recording is a call argument (``record_events(events=)``), not
    a config field: the ``events`` knob is gone, loudly, and stored results
    that carry it still load."""

    @pytest.mark.parametrize("build", [GPUConfig, GPUConfig.default_sim,
                                       GPUConfig.fermi_gtx480])
    def test_events_is_not_a_config_field(self, build):
        with pytest.raises(TypeError, match="events"):
            build(events="on")
        assert not hasattr(GPUConfig, "with_events")

    def test_result_payload_with_events_loads(self):
        from repro.experiments.runner import run_scheme
        from repro.stats.counters import RunResult

        result = run_scheme("synthetic_imbalance", "rr", scale=0.25,
                            use_cache=False, persistent=False)
        payload = result.to_dict()
        assert "events" not in payload
        payload["events"] = "on"
        loaded = RunResult.from_dict(payload)
        assert loaded == RunResult.from_dict(result.to_dict())
        assert not hasattr(loaded, "events")


class TestRemovedExtensions:
    """The L1 no-reuse bypass and the critical-MSHR reserve are gone: their
    knobs and schemes fail by name, and stored results that carry the
    bypass counter still load.  So do the CIAO and WaSP scheme names, the
    sampling seed, the two cache fields nothing read (``l1i`` and
    ``CacheConfig.replacement``) and the L1D policy selector
    (``l1d_policy``): the scheme picks the L1D policy."""

    @pytest.mark.parametrize("knob,value", [
        ("cacp_bypass", True),
        ("critical_mshr_reserve", 2),
        pytest.param("sampling_seed", 7, id="sampling_seed-7"),
        ("use_cpl", False),
        ("l1d_policy", "srrip"),
        pytest.param("l1i", CacheConfig(sets=4, ways=4), id="l1i-CacheConfig"),
    ])
    def test_knob_is_not_a_config_field(self, knob, value):
        with pytest.raises(TypeError, match=knob):
            GPUConfig.default_sim(**{knob: value})

    def test_replacement_is_not_a_cache_field(self):
        with pytest.raises(TypeError, match="replacement"):
            CacheConfig(sets=8, ways=16, replacement="srrip")

    def test_with_sampling_takes_no_seed(self):
        with pytest.raises(TypeError, match="seed"):
            GPUConfig.default_sim().with_sampling("blocks:0.5", seed=7)

    @pytest.mark.parametrize("scheme", ["cawa+bypass", "cawa+mshr", "ciao", "wasp",
                                        "ccws"])
    def test_scheme_is_refused_by_name(self, scheme):
        from repro import apply_scheme

        with pytest.raises(ValueError,
                           match=re.escape(f"scheme {scheme!r} was removed")) as exc:
            apply_scheme(GPUConfig.default_sim(), scheme)
        # ... and says why: each reason cites the measurement that removed it.
        assert "(EXPERIMENTS.md, " in str(exc.value)

    def test_result_payload_with_bypasses_loads(self):
        from repro.experiments.runner import run_scheme
        from repro.stats.counters import RunResult

        result = run_scheme("synthetic_imbalance", "rr", scale=0.25,
                            use_cache=False, persistent=False)
        current = result.to_dict()
        old = json.loads(json.dumps(current))
        old["l1_stats"]["bypasses"] = 0
        old["l2_stats"]["bypasses"] = 0
        loaded = RunResult.from_dict(old)
        assert loaded == RunResult.from_dict(current)
        assert loaded.to_dict() == current


def reference_fingerprint(cfg: GPUConfig) -> str:
    """The fingerprint formula before it was cached: ``asdict`` of every
    field, plus the deleted fields at the defaults they were hashed with
    (``replacement`` in every cache's dict)."""
    fields = dataclasses.asdict(cfg)
    for name in ("l1d", "l2"):
        fields[name]["replacement"] = "lru"
    payload = {"cacp_bypass": False, "critical_mshr_reserve": 0,
               "sampling_seed": 0, "use_cpl": True, "l1d_policy": "lru",
               "l1i": {"sets": 4, "ways": 4, "line_size": 128, "hit_latency": 2,
                       "replacement": "lru", "critical_ways": 0,
                       "mshr_entries": 32},
               **fields}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@st.composite
def caches(draw):
    ways = draw(st.sampled_from([1, 2, 4, 8, 16]))
    return CacheConfig(
        sets=draw(st.integers(1, 512)),
        ways=ways,
        line_size=draw(st.sampled_from([32, 64, 128, 256])),
        hit_latency=draw(st.integers(1, 8)),
        critical_ways=draw(st.integers(0, ways)),
        mshr_entries=draw(st.integers(1, 64)),
    )


@st.composite
def overrides(draw):
    """A valid set of ``GPUConfig.default_sim`` overrides."""
    sampling = draw(st.sampled_from(["off", "blocks:0.5", "blocks:0.25"]))
    return {
        "scheduler_name": draw(st.sampled_from(sorted(SCHEDULERS))),
        "alu_latency": draw(st.integers(1, 32)),
        "sfu_latency": draw(st.integers(1, 64)),
        "l2_latency": draw(st.integers(1, 400)),
        "dram_latency": draw(st.integers(1, 800)),
        "l1d": draw(caches()),
        "l2": draw(caches()),
        "l2_banks": draw(st.integers(1, 8)),
        "use_cacp": draw(st.booleans()),
        "cacp_mode": draw(st.sampled_from(["priority", "static"])),
        "sampling": sampling,
    }


class TestFingerprintCache:
    """``fingerprint()`` is computed once per instance and must stay the
    value the uncached formula gives, on every path a config takes."""

    @settings(max_examples=60, deadline=None)
    @given(first=overrides(), second=overrides())
    def test_cached_value_is_the_formula(self, first, second):
        cfg = GPUConfig.default_sim(**first)
        fp = cfg.fingerprint()
        assert fp == reference_fingerprint(cfg)
        assert cfg.fingerprint() == fp
        # A copy made after the value was cached hashes its own fields.
        other = dataclasses.replace(cfg, **second)
        assert other.fingerprint() == reference_fingerprint(other)
        bumped = dataclasses.replace(cfg, dram_latency=cfg.dram_latency + 1)
        assert bumped.fingerprint() == reference_fingerprint(bumped) != fp
        for clone in (pickle.loads(pickle.dumps(cfg)),
                      pickle.loads(pickle.dumps(bumped.with_scheduler("gto")))):
            assert clone.fingerprint() == reference_fingerprint(clone)
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_cached_value_is_invisible_to_equality_and_hash(self):
        cfg, twin = GPUConfig.default_sim(), GPUConfig.default_sim()
        cfg.fingerprint()
        assert cfg == twin and hash(cfg) == hash(twin)
        assert dataclasses.asdict(cfg) == dataclasses.asdict(twin)


class TestFingerprintConstants:
    def test_validation_rejects_unknown_functional_path(self, monkeypatch):
        monkeypatch.setattr(
            GPUConfig,
            "FUNCTIONAL_FINGERPRINT_FIELDS",
            {"bad": "l1d.no_such_field"},
        )
        with pytest.raises(ConfigError, match="bad"):
            _validate_fingerprint_spec()

    def test_functional_fingerprint_follows_declared_fields(self):
        base = GPUConfig.default_sim()
        assert set(GPUConfig.FUNCTIONAL_FINGERPRINT_FIELDS) == {
            "warp_size",
            "l1_line_size",
        }
        # Timing-only knobs do not move it; functional knobs do.
        assert (
            base.functional_fingerprint()
            == base.with_scheduler("gto").functional_fingerprint()
        )
        wider = dataclasses.replace(base, warp_size=64)
        assert base.functional_fingerprint() != wider.functional_fingerprint()
