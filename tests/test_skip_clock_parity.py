"""Golden bit-identity: the skip clock must exactly match the cycle clock.

The time-skipping clock (``GPUConfig.clock='skip'``, ``repro.gpu.clock``)
only jumps over cycles on which *no* SM can act, so every issue, cache
access, and DRAM trip must land on exactly the same cycle as under the
per-cycle loop — cycle counts, instruction totals, the full cache/DRAM
trace, and every per-warp execution time are compared bit-for-bit.

The grid covers both frontends: ``execute`` (functional lanes) and
``trace`` (recorded-stream replay).  A fast subset runs in tier 1; the
full (workload x scheme x frontend) grid is marked ``slow``.

The diagnostic counters ``cycles_skipped``/``skip_jumps`` are deliberately
*excluded* from the comparison: the cycle loop only jumps on whole-device
stalls while the skip clock jumps between every pair of events, so the two
clocks legitimately disagree there.
"""

import pytest

from repro import trace as trace_mod
from repro.config import GPUConfig
from repro.core.cawa import SCHEMES, apply_scheme
from repro.experiments.runner import build_oracle, clear_cache, run_scheme
from repro.workloads import workload_names

#: ISSUE grid {lrr, gto, caws, cawa}; round-robin is registered as "rr".
GRID_SCHEMES = ["rr", "gto", "caws", "cawa"]
FRONTENDS = ["execute", "trace"]
SCALE = 0.25

_PROGRAMS = {}


def _program(workload, scale=SCALE):
    """Record each workload once per session; both clocks replay it."""
    key = (workload, scale)
    if key not in _PROGRAMS:
        _, program = trace_mod.record_workload(
            workload, scale=scale, config=GPUConfig.default_sim()
        )
        _PROGRAMS[key] = program
    return _PROGRAMS[key]


def _signature(result):
    """Everything that must not drift between the two clocks."""
    return (
        result.cycles,
        result.warp_instructions,
        result.thread_instructions,
        result.l1_stats.accesses,
        result.l1_stats.hits,
        result.l1_stats.misses,
        result.l1_stats.bypasses,
        result.l1_stats.critical_hits,
        result.l2_stats.accesses,
        result.l2_stats.misses,
        result.dram_accesses,
        tuple(tuple(block.warp_execution_times()) for block in result.blocks),
    )


def _run(workload, scheme, frontend, clock, scale=SCALE):
    base = GPUConfig.default_sim().with_clock(clock)
    if frontend == "execute":
        if scheme == "caws":
            clear_cache()
        return run_scheme(workload, scheme, scale=scale,
                          config=base.with_frontend("execute"),
                          use_cache=False, persistent=False)
    cfg = apply_scheme(base, scheme)
    oracle = None
    if cfg.scheduler_name == "caws":
        clear_cache()
        oracle = build_oracle(workload, scale, GPUConfig.default_sim())
    return trace_mod.replay_program(
        _program(workload, scale), cfg, scheme=scheme, oracle=oracle
    )[-1]


def _assert_parity(workload, scheme, frontend, scale=SCALE):
    cycle = _run(workload, scheme, frontend, "cycle", scale)
    skip = _run(workload, scheme, frontend, "skip", scale)
    assert _signature(cycle) == _signature(skip), (
        f"cycle/skip divergence on {workload} x {scheme} ({frontend})"
    )


class TestSkipParityFast:
    """Tier-1 subset: one Sens workload across the grid schemes."""

    @pytest.mark.parametrize("scheme", GRID_SCHEMES)
    def test_execute_frontend(self, scheme):
        _assert_parity("synthetic_imbalance", scheme, "execute")

    @pytest.mark.parametrize("scheme", ["rr", "cawa"])
    def test_trace_frontend(self, scheme):
        _assert_parity("synthetic_imbalance", scheme, "trace")

    def test_barrier_workload(self):
        # kmeans exercises block-wide barriers (barrier wake path) and
        # multi-launch resume across the skip loop's per-launch heap.
        _assert_parity("kmeans", "cawa", "execute", scale=0.125)

    def test_divergent_workload(self):
        _assert_parity("synthetic_divergence", "gto", "execute")

    def test_dispatch_wave_workload(self):
        # strcltr has more blocks than the device can co-host, so commits
        # trigger mid-run dispatches — the only cross-SM wake source.
        _assert_parity("strcltr_mid", "rr", "execute", scale=1.0)


@pytest.mark.slow
class TestSkipParityFullGrid:
    """The full golden grid: every workload x scheme x frontend."""

    @pytest.mark.parametrize("frontend", FRONTENDS)
    @pytest.mark.parametrize("workload", workload_names())
    @pytest.mark.parametrize("scheme", GRID_SCHEMES)
    def test_grid_cell(self, workload, scheme, frontend):
        _assert_parity(workload, scheme, frontend)


def test_all_grid_schemes_are_real():
    assert set(GRID_SCHEMES) <= set(SCHEMES)
