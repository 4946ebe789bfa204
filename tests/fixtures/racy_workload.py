"""A kernel whose streams depend on warp timing: the recorder must refuse it.

``data[t] = data[(t + 32) % n] + 1`` *in place*: thread ``t`` loads the word
the thread one warp further on stores, with no barrier between the two, so
what it reads — and, because the value feeds a branch, the stream it
records — depends on which of the two warps the scheduler ran first.  A
trace of it could be replayed only under the schedule it was recorded on.
The workload "verifies" (any interleaving is a legal outcome of the racy
program), so nothing but the recorder's schedule-invariance check
(:class:`repro.errors.TraceInvarianceError`) stands between it and a
silently wrong scheme sweep.
"""

from __future__ import annotations

import numpy as np

from repro import CmpOp, KernelBuilder, Special
from repro.workloads.base import LaunchSpec, Workload

NAME = "racy_shift"


class RacyShiftWorkload(Workload):
    """In-place shifted increment over ``n`` words, 64-thread blocks."""

    name = NAME
    category = "Non-sens"
    dataset = "256 words, each thread reads its neighbour warp's slot"

    def build(self, gpu) -> LaunchSpec:
        n = self._int(256)
        base = gpu.memory.alloc_array(self.rng.rand(n).round(3))
        self.base, self.n = base, n

        b = KernelBuilder(NAME)
        t = b.sreg(Special.GTID)
        src = b.reg()
        b.add(src, t, 32.0)
        b.mod(src, src, float(n))
        x = b.ld(b.addr(src, base=base, scale=8))
        b.add(x, x, 1.0)
        big = b.pred()
        b.setp(big, CmpOp.GT, x, 1.5)
        with b.if_then(big):  # the loaded value steers control flow
            b.mul(x, x, 2.0)
        b.st(b.addr(t, base=base, scale=8), x)
        return LaunchSpec(kernel=b.build(), grid_dim=n // 64, block_dim=64,
                          buffers={"data": base},
                          verifier=lambda gpu_: bool(np.all(np.isfinite(
                              gpu_.memory.read_array(base, n)))))


def register(monkeypatch) -> None:
    """Make ``racy_shift`` a registry workload (and so a CLI choice) for one test."""
    from repro.workloads import registry

    monkeypatch.setitem(registry.WORKLOADS, NAME, RacyShiftWorkload)
