"""Sampled-sweep smoke benchmark: the ISSUE 9 acceptance gate.

Calibrates two machine-filling workloads (``repro sample calibrate``'s
programmatic API), then races the exact trace-replay sweep against
``run_sweep(sampled=True)`` over the same (workload x scheme) grid:

* the sampled sweep must be **>= 10x** faster in wall-clock terms, and
* every reported metric's exact value must fall inside the sampled run's
  own 95% confidence interval (coverage is deterministic here: the
  calibrated cells replay the exact subset calibration measured).

The grid runs at scale 24 (192 blocks per workload) so the ~8% sampling
rate still keeps ~2 waves of machine concurrency resident per SM —
below that, the sampled cycles-per-record rate does not transfer to the
full grid (docs/sampling.md).  Speedup, worst relative error, and
effective cycles/s land in pytest-benchmark's ``extra_info``; the tracked
numbers are the ledger's ``sampling.*`` metrics (benchmarks/ledger/README.md).
"""

import time

import pytest

from conftest import run_once

from repro.config import GPUConfig
from repro.experiments.runner import clear_cache, run_sweep
from repro.sampling import calibrate as sampling_calibrate
from repro.stats import compare_results, max_rel_error
from repro.stats.sampling import REPORT_METRICS, SampledRunResult

#: 192 blocks per workload: large enough that an 8% block sample still
#: fills the machine (2 SMs x 4 resident blocks x ~2 waves).
SAMPLE_SCALE = 24.0
WORKLOADS = ("backprop", "pathfinder")
SCHEMES = ("rr", "gto")
#: Single candidate rate: the calibration is the gate, not a search.
RATES = (0.08,)
TARGET_REL_ERR = 0.15
SPEEDUP_FLOOR = 10.0


@pytest.mark.slow
def test_sampled_sweep_speedup_and_coverage(benchmark, tmp_path, monkeypatch):
    # Isolated cache: the calibration table, traces, and results must not
    # leak into (or out of) the repo-level .repro_cache/.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))
    clear_cache()
    cfg = GPUConfig.default_sim()

    def measure():
        # Calibration records each workload's trace (warming the trace
        # store for both sweeps), runs the exact scheme grid, and probes
        # the candidate rate to pick specs and per-metric envelopes.
        report = sampling_calibrate.calibrate(
            WORKLOADS, schemes=SCHEMES, rates=RATES, scale=SAMPLE_SCALE,
            config=cfg, target_rel_err=TARGET_REL_ERR,
        )

        clear_cache()
        start = time.perf_counter()
        exact = run_sweep(WORKLOADS, SCHEMES, scale=SAMPLE_SCALE,
                          config=cfg, use_cache=False,
                          persistent=False)
        exact_seconds = time.perf_counter() - start

        clear_cache()
        start = time.perf_counter()
        sampled = run_sweep(WORKLOADS, SCHEMES, scale=SAMPLE_SCALE,
                            config=cfg, sampled=True, use_cache=False,
                            persistent=False)
        sampled_seconds = time.perf_counter() - start
        return report, exact, exact_seconds, sampled, sampled_seconds

    report, exact, exact_seconds, sampled, sampled_seconds = run_once(
        benchmark, measure
    )

    # Calibration must have accepted the rate for both workloads — a
    # spec of None would make the "sampled" sweep silently exact.
    specs = {w: report["workloads"][w]["spec"] for w in WORKLOADS}
    assert all(spec is not None for spec in specs.values()), specs

    worst = 0.0
    for workload in WORKLOADS:
        for scheme in SCHEMES:
            cell = sampled[(workload, scheme)]
            assert isinstance(cell, SampledRunResult), (workload, scheme)
            assert cell.info.envelope_source == "calibrated"
            errors = compare_results(
                cell, exact[(workload, scheme)], REPORT_METRICS
            )
            worst = max(worst, max_rel_error(errors))
            uncovered = {
                name: err.to_dict()
                for name, err in errors.items() if not err.covered
            }
            assert not uncovered, (workload, scheme, uncovered)

    speedup = exact_seconds / sampled_seconds
    assert speedup >= SPEEDUP_FLOOR, (
        f"sampled sweep speedup {speedup:.1f}x below the "
        f"{SPEEDUP_FLOOR:.0f}x gate "
        f"({exact_seconds:.1f}s exact vs {sampled_seconds:.1f}s sampled)"
    )

    total_cycles = sum(r.cycles for r in exact.values())
    payload = {
        "workloads": list(WORKLOADS),
        "schemes": list(SCHEMES),
        "scale": SAMPLE_SCALE,
        "specs": specs,
        "exact_seconds": exact_seconds,
        "sampled_seconds": sampled_seconds,
        "speedup": speedup,
        "max_rel_error": worst,
        "simulated_cycles": total_cycles,
        "exact_cycles_per_second": total_cycles / exact_seconds,
        "effective_cycles_per_second": total_cycles / sampled_seconds,
    }
    benchmark.extra_info.update(payload)
