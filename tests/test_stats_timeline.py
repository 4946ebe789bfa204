"""Tests for the warp timeline profiler."""

import numpy as np

from repro import GPU, GPUConfig
from repro.obs import bus_from_spec
from repro.stats.timeline import (
    TimelineProfiler,
    critical_tail_cycles,
    render_block_timeline,
)
from repro.workloads import make_workload


def profile(workload="synthetic_imbalance", **kwargs):
    bus = bus_from_spec("on")
    profiler = TimelineProfiler()
    bus.attach(profiler)
    gpu = GPU(GPUConfig.default_sim(num_sms=1), obs=bus)
    make_workload(workload, **kwargs).run(gpu)
    return profiler


class TestProfiler:
    def test_records_every_warp(self):
        profiler = profile()
        sm_id, block_id = profiler.block_keys()[0]
        warps = profiler.block_timelines(sm_id, block_id)
        assert len(warps) == 8  # 256-thread blocks = 8 warps

    def test_issue_cycles_monotonic_per_warp(self):
        profiler = profile()
        for timeline in profiler.timelines.values():
            cycles = timeline.issue_cycles
            assert cycles == sorted(cycles)
            assert timeline.finish_cycle is not None
            assert timeline.finish_cycle == cycles[-1]

    def test_block_keys_cover_all_blocks(self):
        profiler = profile()
        assert len(profiler.block_keys()) == 2  # 512 threads / 256 per block


class TestRendering:
    def test_render_contains_all_warps(self):
        profiler = profile()
        sm_id, block_id = profiler.block_keys()[0]
        text = render_block_timeline(profiler, sm_id, block_id)
        for warp_id in range(8):
            assert f"w{warp_id}" in text
        assert "done @" in text

    def test_render_empty_block(self):
        profiler = TimelineProfiler()
        assert "no issue samples" in render_block_timeline(profiler, 0, 0)

    def test_strip_width_respected(self):
        profiler = profile()
        sm_id, block_id = profiler.block_keys()[0]
        text = render_block_timeline(profiler, sm_id, block_id, width=40)
        for line in text.splitlines()[1:]:
            first, last = line.index("|"), line.rindex("|")
            assert last - first - 1 == 40


class TestCriticalTail:
    def test_imbalanced_block_has_tail(self):
        profiler = profile()
        sm_id, block_id = profiler.block_keys()[0]
        assert critical_tail_cycles(profiler, sm_id, block_id) > 0

    def test_empty_block_has_no_tail(self):
        profiler = TimelineProfiler()
        assert critical_tail_cycles(profiler, 0, 0) == 0.0
