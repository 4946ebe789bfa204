"""Sharded multi-SM trace replay must be bit-identical to serial replay.

The sharded engine (:mod:`repro.gpu.sharded`) partitions SMs across
fork-spawned worker processes and serializes every shared L2/DRAM access
through a coordinator in ``(tick_cycle, sm_id)`` order — exactly the order
the serial loop produces; the serial reference is pinned to the per-cycle
loop, so the workers' skip loop is checked against the independent
implementation, not against itself.  These tests pin that equivalence
(cycles, instruction totals, the full cache/DRAM trace, per-warp execution
times), the determinism of repeated sharded runs, and every guarded error
path (execute frontend, live observers, non-resident grids, missing fork).
"""

import multiprocessing

import pytest

from repro import trace as trace_mod
from repro.config import GPUConfig
from repro.core.cawa import apply_scheme
from repro.errors import ConfigError
from repro.experiments.runner import run_scheme

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded replay requires the fork start method",
)

#: Wide enough for strcltr_mid scale=1 (4 blocks) to be fully resident.
NUM_SMS = 4

_PROGRAMS = {}


def _config():
    return GPUConfig.default_sim(num_sms=NUM_SMS).with_frontend("trace")


def _program(workload, scale):
    key = (workload, scale)
    if key not in _PROGRAMS:
        _, program = trace_mod.record_workload(
            workload, scale=scale, config=GPUConfig.default_sim(num_sms=NUM_SMS)
        )
        _PROGRAMS[key] = program
    return _PROGRAMS[key]


def _signature(result):
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


def _replay(workload, scale, scheme, shards, clock="skip"):
    cfg = apply_scheme(_config().with_shards(shards).with_clock(clock), scheme)
    return trace_mod.replay_program(
        _program(workload, scale), cfg, scheme=scheme
    )[-1]


@needs_fork
class TestShardedBitIdentity:
    @pytest.mark.parametrize("scheme", ["gto", "cawa"])
    def test_strcltr_two_shards(self, scheme):
        serial = _replay("strcltr_mid", 1.0, scheme, shards=1, clock="cycle")
        sharded = _replay("strcltr_mid", 1.0, scheme, shards=2)
        assert _signature(sharded) == _signature(serial)

    def test_bfs_three_shards(self):
        serial = _replay("bfs", 0.25, "gto", shards=1, clock="cycle")
        sharded = _replay("bfs", 0.25, "gto", shards=3)
        assert _signature(sharded) == _signature(serial)

    def test_sharded_run_is_deterministic(self):
        first = _replay("strcltr_mid", 1.0, "rr", shards=2)
        second = _replay("strcltr_mid", 1.0, "rr", shards=2)
        assert _signature(first) == _signature(second)

    def test_merged_result_provenance(self):
        # Workers only have the skip loop, whatever the config asks for.
        result = _replay("strcltr_mid", 1.0, "gto", shards=2, clock="cycle")
        assert result.shards == 2
        assert result.clock == "skip"
        # Blocks from all shards, merged in block-id order.
        ids = [block.block_id for block in result.blocks]
        assert ids == sorted(ids)
        assert len(ids) == 4  # strcltr_mid scale=1 grid

    def test_shards_capped_at_num_sms(self):
        # More shards than SMs degrades to one SM per worker, still exact.
        serial = _replay("strcltr_mid", 1.0, "rr", shards=1, clock="cycle")
        sharded = _replay("strcltr_mid", 1.0, "rr", shards=NUM_SMS + 3)
        assert _signature(sharded) == _signature(serial)


@needs_fork
class TestRunSchemeIntegration:
    def test_run_scheme_shards_flag_matches_serial(self):
        cfg = GPUConfig.default_sim(num_sms=NUM_SMS)
        serial = run_scheme("strcltr_mid", "gto", scale=1.0,
                            config=cfg.with_frontend("trace").with_clock("cycle"),
                            use_cache=False, persistent=False)
        # Plain execute-frontend config: run_scheme flips to trace itself.
        sharded = run_scheme("strcltr_mid", "gto", scale=1.0, config=cfg,
                             shards=2, use_cache=False, persistent=False)
        assert sharded.shards == 2
        assert _signature(sharded) == _signature(serial)


class TestGuardRails:
    def test_execute_frontend_rejects_shards(self):
        with pytest.raises(ConfigError):
            GPUConfig.default_sim().with_shards(2)

    @needs_fork
    def test_observers_cannot_cross_process_boundaries(self):
        class Observer:
            def on_issue(self, *a, **k):  # pragma: no cover - never called
                pass

        cfg = _config().with_shards(2)
        with pytest.raises(ConfigError, match="observers"):
            trace_mod.replay_program(
                _program("strcltr_mid", 1.0), cfg, scheme="rr",
                observers=[Observer()],
            )

    def test_non_resident_grid_rejected(self):
        from repro.gpu.sharded import _check_grid_resident

        class Kernel:
            num_regs = 8

        class Launch:
            kernel = Kernel()
            grid_dim = 100
            block_dim = 64

        class Program:
            launches = [Launch()]

        cfg = GPUConfig.default_sim(num_sms=2)
        with pytest.raises(ConfigError, match="resident"):
            _check_grid_resident(cfg, Program())

    @needs_fork
    def test_non_resident_grid_rejected_end_to_end(self):
        # 4 blocks cannot all be resident on 1 SM x 2 blocks.
        cfg = GPUConfig.default_sim(
            num_sms=1, max_blocks_per_sm=2
        ).with_frontend("trace").with_shards(2)
        with pytest.raises(ConfigError, match="resident"):
            trace_mod.replay_program(
                _program("strcltr_mid", 1.0), cfg, scheme="rr"
            )
