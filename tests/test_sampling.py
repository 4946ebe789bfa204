"""Sampled trace replay (``repro.sampling``): the spec knob, subset
planning invariants, the stratified estimator, calibration, and the
``run_sweep(sampled=...)`` integration.

The statistical contract under test: subset selection is a pure function
of the configuration (same seed, same subset), rate-1 sampling collapses
to the exact replay, and every reported metric's exact value falls inside
the sampled 95% interval on a calibrated cell.
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
from repro.sampling import calibrate as sampling_calibrate
from repro.stats import compare_results, max_rel_error
from repro.stats.sampling import REPORT_METRICS, SampledRunResult

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
        ("intervals:0.5", "intervals", 0.5),
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
        assert (
            sampled.fingerprint()
            != config.with_sampling("blocks:0.25", seed=7).fingerprint()
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
        derived, plans = subsample_program(program, "blocks:0.5", seed=0)
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
        _derived, plans = subsample_program(program, "blocks:0.25", seed=0)
        plan = plans[-1]
        # max(1, round(rate * members)) per stratum, strata capped by the
        # rate: never more than one extra block over the naive target.
        assert len(plan.selected) <= max(1, int(0.25 * plan.total_blocks)) + 1

    def test_selection_is_deterministic_in_the_seed(self, config):
        program = _program(config=config)
        _d1, p1 = subsample_program(program, "blocks:0.5", seed=3)
        _d2, p2 = subsample_program(program, "blocks:0.5", seed=3)
        assert p1[-1].selected == p2[-1].selected

    def test_sampled_program_records_provenance(self, config):
        program = _program(config=config)
        derived, _plans = subsample_program(program, "blocks:0.5", seed=0)
        assert derived.meta["sampled_from"] == program.trace_id
        assert derived.meta["sampling"] == "blocks:0.5"
        assert derived.meta["sampling_seed"] == 0
        assert derived.functional_fingerprint == program.functional_fingerprint

    def test_intervals_keep_every_block_and_terminate_warps(self, config):
        program = _program(config=config)
        derived, plans = subsample_program(program, "intervals:0.25", seed=0)
        plan = plans[-1]
        original = program.launches[-1]
        launch = derived.launches[-1]
        assert plan.selected == sorted({b for b, _w in original.warps})
        assert set(launch.warps) == set(original.warps)
        kinds = original.aux_kinds
        for key, stream in launch.warps.items():
            full = list(original.warps[key].records(kinds))
            kept = list(stream.records(kinds))
            assert 0 < len(kept) <= len(full) + 1
            # A truncated stream is a prefix of the warp's records
            # (payloads included), re-terminated with the warp's own
            # terminal (EXIT) record, so every warp still retires.
            assert kept[:-1] == full[:len(kept) - 1]
            assert kept[-1] == full[-1]

    def test_intervals_reduce_the_replayed_records(self, config):
        program = _program(config=config)
        _derived, plans = subsample_program(program, "intervals:0.25", seed=0)
        plan = plans[-1]
        assert plan.replayed_records < plan.total_records


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
        errors = compare_results(sampled, exact, REPORT_METRICS)
        assert max_rel_error(errors) == 0.0
        assert all(err.covered for err in errors.values())
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
        assert set(REPORT_METRICS) <= set(result.ci)
        for est in result.ci.values():
            assert est.lo <= est.value <= est.hi
        info = result.info
        assert info.mode == "blocks"
        assert info.rate == 0.5
        assert 0 < info.sampled_blocks <= info.total_blocks
        assert 0.0 < info.replay_fraction <= 1.0
        assert result.extra["sampling_replay_fraction"] == info.replay_fraction
        # Functional totals are exact by construction.
        assert result.ci["warp_instructions"].method == "exact"
        assert result.ci["warp_instructions"].lo == result.warp_instructions

    def test_intervals_mode_runs_and_estimates(self):
        result = self._run("intervals:0.5")
        exact = self._exact()
        assert isinstance(result, SampledRunResult)
        assert result.info.mode == "intervals"
        assert result.info.replay_fraction < 1.0
        assert result.ci["cycles"].value > 0
        # Extrapolated cycles stay on the exact value's order of magnitude.
        assert 0.3 * exact.cycles < result.cycles < 3.0 * exact.cycles

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
# Calibration and the sampled sweep
# ----------------------------------------------------------------------
class TestCalibration:
    def test_calibrate_persists_spec_and_envelope(self):
        # The loose target absorbs the machine-fill error of sampling a
        # 4-block grid (docs/sampling.md); picking the rate is the part
        # under test here, not its accuracy.
        report = sampling_calibrate.calibrate(
            [WORKLOAD], schemes=["rr"], rates=(0.5,), scale=SCALE,
            target_rel_err=2.0,
        )
        entry = report["workloads"][WORKLOAD]
        assert entry["spec"] == "blocks:0.5"
        assert set(entry["envelope"]) == set(sampling_calibrate.CAL_METRICS)
        floor = sampling_calibrate.ENVELOPE_FLOOR
        assert all(v >= floor for v in entry["envelope"].values())
        # Persisted and readable back through the lookup API.
        spec, envelope, source = sampling_calibrate.lookup(WORKLOAD)
        assert spec == "blocks:0.5"
        assert envelope == entry["envelope"]
        assert source.startswith("calibrated:")
        env, env_source = sampling_calibrate.envelope_for(WORKLOAD, spec)
        assert env == entry["envelope"]
        assert env_source == "calibrated"
        # The envelope vouches only for the rate it was measured at.
        assert sampling_calibrate.envelope_for(WORKLOAD, "blocks:0.1") == (
            None, "default",
        )

    def test_unmet_target_marks_workload_exact(self, monkeypatch):
        # An impossible target (negative) can never be met.
        report = sampling_calibrate.calibrate(
            [WORKLOAD], schemes=["rr"], rates=(0.5,), scale=SCALE,
            target_rel_err=-1.0,
        )
        entry = report["workloads"][WORKLOAD]
        assert entry["spec"] is None
        assert entry["envelope"] is None
        assert sampling_calibrate.lookup(WORKLOAD) == (
            None, None, "calibration-failed",
        )
        # Sampled sweeps then run this workload exactly.
        results = runner.run_sweep([WORKLOAD], ["rr"], scale=SCALE,
                                   sampled=True)
        result = results[(WORKLOAD, "rr")]
        assert not isinstance(result, SampledRunResult)

    def test_uncalibrated_workload_uses_the_default_spec(self):
        assert sampling_calibrate.lookup(WORKLOAD) == (
            sampling_calibrate.DEFAULT_SPEC, None, "default",
        )

    def test_calibrated_cell_covers_the_exact_value(self):
        """Same-seed determinism + safety-inflated envelopes: on the
        calibrated cells themselves, coverage is a guarantee."""
        sampling_calibrate.calibrate(
            [WORKLOAD], schemes=["rr"], rates=(0.5,), scale=SCALE,
            target_rel_err=2.0,
        )
        exact = runner.run_scheme(
            WORKLOAD, "rr", scale=SCALE,
            config=GPUConfig.default_sim(),
            use_cache=False, persistent=False,
        )
        results = runner.run_sweep([WORKLOAD], ["rr"], scale=SCALE,
                                   sampled=True)
        sampled = results[(WORKLOAD, "rr")]
        assert isinstance(sampled, SampledRunResult)
        assert sampled.info.envelope_source == "calibrated"
        errors = compare_results(
            sampled, exact, sampling_calibrate.CAL_METRICS
        )
        assert all(err.covered for err in errors.values()), {
            n: e.to_dict() for n, e in errors.items() if not e.covered
        }

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


# ----------------------------------------------------------------------
# Determinism tooling (satellite 2)
# ----------------------------------------------------------------------
class TestSanitizeCoupling:
    def test_det001_catches_an_unseeded_sampler(self):
        from pathlib import Path

        from repro.sanitize import sanitize_tree

        fixture = (Path(__file__).parent / "fixtures" / "sanitize"
                   / "det001")
        report = sanitize_tree(fixture, rules=["DET001"])
        assert not report.ok
        assert any(
            "block_sampler.py" in f.path and "seed" in f.message
            for f in report.findings if not f.suppressed
        )

    def test_shipped_sampling_tree_is_det001_clean(self):
        from pathlib import Path

        import repro.sampling
        from repro.sanitize import sanitize_tree

        root = Path(repro.sampling.__file__).parent
        report = sanitize_tree(root, rules=["DET001"])
        assert report.ok
        # Zero new waivers: the sampler is seeded by construction.
        assert not report.findings
