"""Golden determinism: a stored trace's replay must exactly match the
same cell recorded in place.

A GPU handed no trace records each launch in place and times that
recording; the runner replays one stored recording under every scheme.
Both go through the same issue core, scoreboard, LSU, caches and DRAM, so
cycle counts, issue statistics and the entire cache/DRAM trace must be
bit-identical between the two for every workload and scheme
(``docs/trace_driven.md``).  A fast subset runs in tier 1; the full
(workload x scheme) grid is marked ``slow``.

Each cell runs under :func:`tests.oracles.run_in_place` — the reference
that never consults the trace store or the result cache — then replays a
:class:`~repro.trace.TraceProgram` recorded once per workload.
"""

import pytest

from repro import trace as trace_mod
from repro.config import GPUConfig
from repro.core.cawa import SCHEMES, apply_scheme
from repro.experiments.runner import build_oracle, clear_cache
from repro.workloads import workload_names
from tests.oracles import run_in_place

#: Every scheduling/prioritization scheme the grid covers.  ``caws``
#: exercises the oracle path (profile run + priority replay) on top.
GRID_SCHEMES = ["rr", "gto", "two_level", "gcaws", "cawa", "caws"]
SCALE = 0.25

_PROGRAMS = {}


def _program(workload, scale=SCALE):
    """Record each workload once per session; every scheme replays it."""
    key = (workload, scale)
    if key not in _PROGRAMS:
        _, program = trace_mod.record_workload(
            workload, scale=scale, config=GPUConfig.default_sim()
        )
        _PROGRAMS[key] = program
    return _PROGRAMS[key]


def _signature(result):
    """Everything that must not drift between the two paths."""
    return (
        result.cycles,
        result.warp_instructions,
        result.thread_instructions,
        result.l1_stats.accesses,
        result.l1_stats.hits,
        result.l1_stats.misses,
        result.l1_stats.bypasses,
        result.l1_stats.critical_hits,
        result.l2_stats.misses,
        result.dram_accesses,
    )


def _run_both(workload, scheme, scale=SCALE):
    base = GPUConfig.default_sim()
    execute = run_in_place(workload, scheme, scale, base)
    assert execute.frontend == "execute" and execute.trace_id is None
    cfg = apply_scheme(base, scheme)
    oracle = None
    if cfg.scheduler_name == "caws":
        clear_cache()
        oracle = build_oracle(workload, scale, base)
    replay = trace_mod.replay_program(
        _program(workload, scale), cfg, scheme=scheme, oracle=oracle
    )[-1]
    return execute, replay


class TestParityFast:
    """Tier-1 subset: one Sens workload across all grid schemes."""

    @pytest.mark.parametrize("scheme", GRID_SCHEMES)
    def test_synthetic_imbalance(self, scheme):
        execute, replay = _run_both("synthetic_imbalance", scheme)
        assert _signature(execute) == _signature(replay)

    def test_barrier_workload(self):
        # kmeans exercises block-wide barriers (barrier wake path).
        execute, replay = _run_both("kmeans", "cawa", scale=0.125)
        assert _signature(execute) == _signature(replay)

    def test_divergent_workload(self):
        execute, replay = _run_both("synthetic_divergence", "gcaws")
        assert _signature(execute) == _signature(replay)

    def test_multi_launch_replay_order(self):
        """A multi-launch program replays launches in recorded order with
        per-launch stats deltas matching the in-place recording."""
        program = _program("kmeans", 0.125)
        base = GPUConfig.default_sim()
        results = trace_mod.replay_program(program, base, scheme="rr")
        assert len(results) == len(program.launches)
        execute = run_in_place("kmeans", "rr", 0.125, base)
        assert _signature(results[-1]) == _signature(execute)


@pytest.mark.slow
class TestParityFullGrid:
    """The full golden grid: every Table 2 workload x every scheme."""

    @pytest.mark.parametrize("workload", workload_names())
    @pytest.mark.parametrize("scheme", GRID_SCHEMES)
    def test_grid_cell(self, workload, scheme):
        execute, replay = _run_both(workload, scheme)
        assert _signature(execute) == _signature(replay), (
            f"in-place/replay divergence on {workload} x {scheme}"
        )


def test_all_grid_schemes_are_real():
    assert set(GRID_SCHEMES) <= set(SCHEMES)
