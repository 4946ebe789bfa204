"""The runner and both harnesses simulate a cell through one routine.

``run_scheme``, ``record_events`` and ``record_signals`` all call
``runner.simulate_cell``, so a cell's numbers and its provenance cannot
depend on which of them asked.  These checks hold by construction; they
are here so that a second copy of the cell path shows up as a failure.
"""

import pytest

from repro.config import GPUConfig
from repro.experiments import runner
from repro.feedback import record_signals
from repro.obs import record_events
from repro.stats.sampling import SampledRunResult

WORKLOAD = "bfs"
SCALE = 0.25


@pytest.fixture(autouse=True)
def _cold_process():
    """Each test starts with nothing memoised (the conftest fixture gives
    it an empty cache directory too)."""
    runner.clear_cache()
    yield
    runner.clear_cache()


def signature(result):
    return (result.cycles, result.warp_instructions,
            result.l1_stats.hits, result.l2_stats.hits)


def run_exact(scheme, config=None):
    return runner.run_scheme(WORKLOAD, scheme, scale=SCALE, config=config,
                             use_cache=False, persistent=False)


@pytest.mark.parametrize("harness", ["run_scheme", "record_events",
                                     "record_signals"])
def test_a_cold_cell_says_it_recorded_its_trace(harness):
    if harness == "run_scheme":
        result = run_exact("gto")
    else:
        call = record_events if harness == "record_events" else record_signals
        result, _ = call(WORKLOAD, "gto", scale=SCALE)
    assert result.frontend == "trace"
    assert result.recorded is True
    assert result.verified is True
    assert result.record_s > 0
    assert result.record_steps > 0 and result.record_warps > 0


@pytest.mark.parametrize("scheme", ["gto", "caws", "cawa"])
def test_runner_and_harnesses_agree(scheme):
    exact = run_exact(scheme)
    events, bus = record_events(WORKLOAD, scheme, scale=SCALE)
    signals, _ = record_signals(WORKLOAD, scheme, scale=SCALE)
    assert bus.emitted > 0
    # Whole results: a bus changes nothing a result holds.
    assert events == exact and signals == exact
    assert exact.verified


def test_sampled_estimates_agree():
    config = GPUConfig.default_sim().with_sampling("blocks:0.5")
    estimate = run_exact("gto", config)
    recorded, bus = record_events(WORKLOAD, "gto", scale=SCALE, config=config)
    tapped, records = record_signals(WORKLOAD, "gto", scale=SCALE, config=config)
    assert isinstance(estimate, SampledRunResult)
    assert bus.emitted > 0 and records
    for result in (recorded, tapped):  # both record the sampled replay
        assert isinstance(result, SampledRunResult)
        assert signature(result) == signature(estimate)
        assert result.ci == estimate.ci
        assert result.info == estimate.info
