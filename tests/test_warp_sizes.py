"""Simulator correctness with non-default warp sizes (e.g. AMD's 64)."""

import numpy as np
import pytest

from repro import GPU, GPUConfig, KernelBuilder
from repro.isa.instructions import CmpOp, Special


def loop_kernel(n, trips_base, out_base):
    b = KernelBuilder("wavefront")
    tid = b.sreg(Special.GTID)
    p = b.pred()
    b.setp(p, CmpOp.LT, tid, float(n))
    with b.if_then(p):
        limit = b.ld(b.addr(tid, base=trips_base, scale=8))
        acc = b.const(0.0)
        j = b.const(0.0)
        done = b.pred()
        with b.loop() as lp:
            b.setp(done, CmpOp.GE, j, limit)
            lp.break_if(done)
            b.add(acc, acc, 2.0)
            b.add(j, j, 1.0)
        b.st(b.addr(tid, base=out_base, scale=8), acc)
    return b.build()


@pytest.mark.parametrize("warp_size", [8, 32, 64])
def test_divergent_loops_any_warp_size(warp_size):
    config = GPUConfig.default_sim(warp_size=warp_size)
    gpu = GPU(config)
    n = warp_size * 4
    trips = np.random.RandomState(3).randint(0, 12, n).astype(float)
    tb = gpu.memory.alloc_array(trips)
    ob = gpu.memory.alloc_array(np.zeros(n))
    gpu.launch(loop_kernel(n, tb, ob), grid_dim=2, block_dim=warp_size * 2)
    assert np.array_equal(gpu.memory.read_array(ob, n), trips * 2.0)


@pytest.mark.parametrize("warp_size", [8, 64])
def test_partial_warps_any_warp_size(warp_size):
    config = GPUConfig.default_sim(warp_size=warp_size)
    gpu = GPU(config)
    n = warp_size + warp_size // 2  # last warp half-populated
    trips = np.full(n, 3.0)
    tb = gpu.memory.alloc_array(trips)
    ob = gpu.memory.alloc_array(np.zeros(n))
    gpu.launch(loop_kernel(n, tb, ob), grid_dim=1, block_dim=n)
    assert np.array_equal(gpu.memory.read_array(ob, n), trips * 2.0)


def test_non_power_of_two_warp_size_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        GPUConfig.default_sim(warp_size=48)


def test_warp_wider_than_the_stream_masks_is_refused_before_any_launch():
    """Every launch is timed from a recorded stream, whose lane masks are
    64-bit: 128 lanes is a configuration error, not a first-launch one."""
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="64-bit"):
        GPU(GPUConfig.default_sim(warp_size=128))
    assert GPUConfig.default_sim(warp_size=64).warp_size == 64
