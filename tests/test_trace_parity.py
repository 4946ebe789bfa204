"""Golden determinism: trace replay must exactly match execution-driven
simulation.

The trace frontend swaps the functional executor for a stream cursor but
leaves the issue core, scoreboard, LSU, caches, and DRAM untouched — so
cycle counts, issue statistics, and the entire cache/DRAM trace must be
bit-identical between the two frontends for every workload and scheme
(``docs/trace_driven.md``).  A fast subset runs in tier 1; the full
(workload x scheme) grid is marked ``slow``.

Each cell executes under ``with_frontend("execute")`` — the reference that
never consults the trace store (a default config would replay) — then
replays a :class:`~repro.trace.TraceProgram` recorded once per workload
under the requested scheme.  Caches are bypassed: the result-cache key
deliberately excludes the frontend selector, so a cached execute result
could satisfy the replay run and mask a real divergence.
"""

import pytest

from repro import trace as trace_mod
from repro.config import GPUConfig
from repro.core.cawa import SCHEMES, apply_scheme
from repro.experiments.runner import build_oracle, clear_cache, run_scheme
from repro.workloads import workload_names

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
    """Everything that must not drift between the two frontends."""
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
    execute = run_scheme(workload, scheme, scale=scale,
                         config=base.with_frontend("execute"),
                         use_cache=False, persistent=False)
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
        per-launch stats deltas matching execution."""
        program = _program("kmeans", 0.125)
        base = GPUConfig.default_sim()
        results = trace_mod.replay_program(program, base, scheme="rr")
        assert len(results) == len(program.launches)
        execute = run_scheme("kmeans", "rr", scale=0.125,
                             config=base.with_frontend("execute"),
                             use_cache=False, persistent=False)
        assert _signature(results[-1]) == _signature(execute)


@pytest.mark.slow
class TestParityFullGrid:
    """The full golden grid: every Table 2 workload x every scheme."""

    @pytest.mark.parametrize("workload", workload_names())
    @pytest.mark.parametrize("scheme", GRID_SCHEMES)
    def test_grid_cell(self, workload, scheme):
        execute, replay = _run_both(workload, scheme)
        assert _signature(execute) == _signature(replay), (
            f"execute/trace divergence on {workload} x {scheme}"
        )


def test_all_grid_schemes_are_real():
    assert set(GRID_SCHEMES) <= set(SCHEMES)
