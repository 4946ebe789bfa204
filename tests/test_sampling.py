"""Sampled trace replay (``repro.sampling``): the spec knob, blocks-mode
planning invariants, the stratified estimator, and the
``run_sweep(sampled=...)`` integration.

The statistical contract under test: subset selection is a pure function
of the configuration (same spec, same subset), and rate-1 sampling
collapses to the exact replay.  ``tests/test_sampled_pin.py`` pins the
estimates of the one sampled sweep the benchmark ledger makes.
"""

from __future__ import annotations

import pytest

from repro.config import GPUConfig
from repro.errors import ConfigError
from repro.experiments import runner
from repro.sampling import (
    SamplingSpec,
    build_strata,
    derive_rng,
    derive_seed,
    parse_sampling_spec,
    profile_program,
    subsample_program,
)
from repro.stats.counters import result_from_dict
from repro.stats.sampling import SampledRunResult

from tests.conftest import record_once

SCALE = 0.25
WORKLOAD = "bfs"


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Sampling tests must not inherit memoized results across tests."""
    runner.clear_cache()
    yield
    runner.clear_cache()


def _program(workload=WORKLOAD, scale=SCALE, config=None):
    """Shared between tests (``record_once``): subsampling derives new
    programs and never mutates the recorded one."""
    return record_once(workload, scale, config)[1]


# ----------------------------------------------------------------------
# Spec parsing and seed derivation
# ----------------------------------------------------------------------
class TestSpec:
    def test_off_round_trip(self):
        spec = parse_sampling_spec("off")
        assert spec == SamplingSpec(mode="off")
        assert not spec.enabled
        assert str(spec) == "off"

    @pytest.mark.parametrize("text,mode,rate", [
        ("blocks:0.25", "blocks", 0.25),
        ("blocks:1", "blocks", 1.0),
    ])
    def test_valid_specs(self, text, mode, rate):
        spec = parse_sampling_spec(text)
        assert spec.mode == mode
        assert spec.rate == rate
        assert spec.enabled
        assert parse_sampling_spec(str(spec)) == spec

    @pytest.mark.parametrize("text", [
        "blocks", "warps:0.5", "blocks:zero", "blocks:0", "blocks:-0.1",
        "blocks:1.5", "intervals:", "",
    ])
    def test_invalid_specs_raise(self, text):
        with pytest.raises(ConfigError):
            parse_sampling_spec(text)

    def test_removed_mode_is_refused_by_name(self):
        with pytest.raises(ConfigError, match="mode 'intervals' was removed"):
            parse_sampling_spec("intervals:0.5")
        with pytest.raises(ConfigError, match="was removed"):
            GPUConfig.default_sim(sampling="intervals:0.5")

    def test_non_string_rejected(self):
        with pytest.raises(ConfigError, match="string"):
            parse_sampling_spec(0.5)

    def test_derived_seed_is_deterministic(self):
        assert derive_seed("blocks", 0.25, 0) == derive_seed("blocks", 0.25, 0)
        assert derive_seed("blocks", 0.25, 0) != derive_seed("blocks", 0.25, 1)

    def test_derived_rng_reproduces_its_stream(self):
        a = [derive_rng("x", 1).random() for _ in range(4)]
        b = [derive_rng("x", 1).random() for _ in range(4)]
        assert a == b


# ----------------------------------------------------------------------
# The config knob
# ----------------------------------------------------------------------
class TestConfigKnob:
    def test_default_is_off(self, config):
        assert config.sampling == "off"

    def test_invalid_spec_rejected_at_construction(self, config):
        with pytest.raises(ConfigError):
            config.with_sampling("blocks:2.0")

    def test_fingerprint_includes_sampling(self, config):
        """A sampled run must never alias an exact run's cache entry."""
        sampled = config.with_sampling("blocks:0.25")
        assert config.fingerprint() != sampled.fingerprint()
        assert (
            sampled.fingerprint()
            != config.with_sampling("blocks:0.5").fingerprint()
        )
        assert sampled.with_sampling("off").fingerprint() == config.fingerprint()


# ----------------------------------------------------------------------
# Planning invariants
# ----------------------------------------------------------------------
class TestPlanning:
    def test_profiles_account_for_every_record(self, config):
        program = _program(config=config)
        profiles = profile_program(program)
        assert len(profiles) == len(program.launches)
        for launch, per_block in zip(program.launches, profiles):
            records = sum(len(r) for r in launch.warps.values())
            assert sum(p.records for p in per_block.values()) == records

    def test_strata_partition_the_blocks(self, config):
        program = _program(config=config)
        profiles = profile_program(program)[-1]
        strata = build_strata(profiles)
        flat = [b for members in strata for b in members]
        assert sorted(flat) == sorted(profiles)
        assert len(flat) == len(set(flat))

    def test_rate_caps_the_stratum_count(self, config):
        """Min-one-per-stratum must not defeat the rate on irregular
        workloads where every block has a unique signature."""
        program = _program(config=config)
        profiles = profile_program(program)[-1]
        for rate in (0.25, 0.5):
            strata = build_strata(profiles, rate)
            assert len(strata) <= max(1, int(rate * len(profiles)))
            flat = [b for members in strata for b in members]
            assert sorted(flat) == sorted(profiles)

    def test_blocks_mode_selects_a_dense_renumbered_subset(self, config):
        program = _program(config=config)
        derived, plans = subsample_program(program, "blocks:0.5")
        plan = plans[-1]
        launch = derived.launches[-1]
        total = plan.total_blocks
        assert 0 < len(plan.selected) <= total
        assert plan.selected == sorted(plan.selected)
        block_ids = {b for b, _w in launch.warps}
        assert block_ids == set(range(len(plan.selected)))
        assert launch.grid_dim == len(plan.selected)
        for new_id, original in enumerate(plan.selected):
            assert plan.original_id(new_id) == original

    def test_blocks_mode_respects_the_rate(self, config):
        program = _program(config=config)
        _derived, plans = subsample_program(program, "blocks:0.25")
        plan = plans[-1]
        # max(1, round(rate * members)) per stratum, strata capped by the
        # rate: never more than one extra block over the naive target.
        assert len(plan.selected) <= max(1, int(0.25 * plan.total_blocks)) + 1

    def test_same_spec_selects_the_same_blocks(self, config):
        # The seed is derived from the spec and the trace identity alone.
        program = _program(config=config)
        _d1, p1 = subsample_program(program, "blocks:0.5")
        _d2, p2 = subsample_program(program, "blocks:0.5")
        assert p1[-1].selected == p2[-1].selected

    def test_sampled_program_records_provenance(self, config):
        program = _program(config=config)
        derived, _plans = subsample_program(program, "blocks:0.5")
        assert derived.meta["sampled_from"] == program.trace_id
        assert derived.meta["sampling"] == "blocks:0.5"
        assert derived.functional_fingerprint == program.functional_fingerprint


# ----------------------------------------------------------------------
# Estimation through the runner
# ----------------------------------------------------------------------
class TestSampledRun:
    def _run(self, spec, **kwargs):
        cfg = GPUConfig.default_sim().with_sampling(spec)
        return runner.run_scheme(
            WORKLOAD, "rr", scale=SCALE, config=cfg,
            use_cache=kwargs.pop("use_cache", False),
            persistent=kwargs.pop("persistent", False), **kwargs,
        )

    def _exact(self):
        cfg = GPUConfig.default_sim()
        return runner.run_scheme(
            WORKLOAD, "rr", scale=SCALE, config=cfg,
            use_cache=False, persistent=False,
        )

    def test_rate_one_collapses_to_exact(self):
        sampled = self._run("blocks:1")
        exact = self._exact()
        assert isinstance(sampled, SampledRunResult)
        assert sampled.cycles == exact.cycles
        assert sampled.warp_instructions == exact.warp_instructions
        assert sampled.thread_instructions == exact.thread_instructions
        assert sampled.l1_stats == exact.l1_stats
        assert sampled.l2_stats == exact.l2_stats
        assert sampled.dram_accesses == exact.dram_accesses
        for name, value in (("cycles", exact.cycles), ("ipc", exact.ipc),
                            ("l1_mpki", exact.l1_mpki)):
            assert sampled.ci[name].value == value
            assert sampled.ci[name].lo <= value <= sampled.ci[name].hi
        assert sampled.info.replay_fraction == 1.0

    def test_sampled_run_is_deterministic(self):
        a = self._run("blocks:0.5")
        b = self._run("blocks:0.5")
        assert a.cycles == b.cycles
        assert a.info.spec == b.info.spec
        assert {n: (e.lo, e.hi) for n, e in a.ci.items()} == {
            n: (e.lo, e.hi) for n, e in b.ci.items()
        }

    def test_estimates_carry_intervals_and_provenance(self):
        result = self._run("blocks:0.5")
        assert set(result.ci) == {
            "cycles", "ipc", "l1_mpki", "l1_misses", "l2_misses",
            "dram_accesses", "total_stall_cycles", "mem_stall_cycles",
            "sched_stall_cycles", "warp_instructions", "thread_instructions"}
        for est in result.ci.values():
            assert est.lo <= est.value <= est.hi
        info = result.info
        assert info.mode == "blocks"
        assert info.rate == 0.5
        assert 0 < info.sampled_blocks <= info.total_blocks
        assert 0.0 < info.replay_fraction <= 1.0
        assert result_from_dict(result.to_dict()).info.replay_fraction \
            == info.replay_fraction
        # Functional totals are exact by construction.
        assert result.ci["warp_instructions"].method == "exact"
        assert result.ci["warp_instructions"].lo == result.warp_instructions

    def test_disk_cache_round_trips_the_sampled_type(self):
        first = self._run("blocks:0.5", use_cache=True, persistent=True)
        runner.clear_cache()  # drop the in-process memo, keep the disk
        second = self._run("blocks:0.5", use_cache=True, persistent=True)
        assert isinstance(second, SampledRunResult)
        assert second.cycles == first.cycles
        assert second.info is not None
        assert second.info.spec == first.info.spec
        assert {n: (e.lo, e.hi) for n, e in second.ci.items()} == {
            n: (e.lo, e.hi) for n, e in first.ci.items()
        }


# ----------------------------------------------------------------------
# The sampled sweep
# ----------------------------------------------------------------------
class TestSampledSweep:
    """``run_sweep(sampled=)``: one explicit spec for every cell, the
    fixed envelope, and a named refusal of the calibrated-rate form."""

    def test_sweep_refuses_calibrated_rates(self):
        with pytest.raises(TypeError, match="'blocks:0.25'"):
            runner.run_sweep([WORKLOAD], ["rr"], scale=SCALE, sampled=True)

    def test_sweep_accepts_an_explicit_spec(self):
        results = runner.run_sweep([WORKLOAD], ["rr"], scale=SCALE,
                                   sampled="blocks:0.5")
        result = results[(WORKLOAD, "rr")]
        assert isinstance(result, SampledRunResult)
        assert result.info.spec == "blocks:0.5"
        assert result.info.envelope_source == "default"

    def test_sweep_sampled_false_stays_exact(self):
        results = runner.run_sweep([WORKLOAD], ["rr"], scale=SCALE)
        assert not isinstance(results[(WORKLOAD, "rr")], SampledRunResult)


# ----------------------------------------------------------------------
# run_sweep kwargs validation (satellite 1)
# ----------------------------------------------------------------------
class TestSweepKwargs:
    def test_unknown_kwarg_raises_a_clear_type_error(self):
        with pytest.raises(TypeError, match="definitely_not_a_knob"):
            runner.run_sweep([WORKLOAD], ["rr"], scale=SCALE,
                             definitely_not_a_knob=True)

    def test_error_names_the_accepted_option_sets(self):
        with pytest.raises(TypeError) as exc:
            runner.run_sweep([WORKLOAD], ["rr"], scale=SCALE, bogus=1)
        message = str(exc.value)
        assert "run_scheme option" in message
        assert "constructor parameter" in message

    def test_workload_constructor_kwargs_still_pass(self):
        results = runner.run_sweep(["bfs"], ["rr"], scale=SCALE,
                                   balanced=True)
        assert ("bfs", "rr") in results

    def test_run_scheme_kwargs_still_pass(self):
        results = runner.run_sweep([WORKLOAD], ["rr"], scale=SCALE,
                                   use_cache=False)
        assert (WORKLOAD, "rr") in results
