"""tpacf — two-point angular correlation function (Parboil).

One thread per galaxy: a fixed loop over a reference set computing angular
dot products, binning each pair into a per-thread histogram row by
logarithmic angle.  Heavy SFU math with uniform trip counts — Non-sens in
Table 2.
"""

from __future__ import annotations

import numpy as np

from ..isa.instructions import CmpOp, Special
from ..isa.kernel import KernelBuilder
from .base import LaunchSpec, Workload


class TpacfWorkload(Workload):
    name = "tpacf"
    category = "Non-sens"
    dataset = "512 galaxies x 64 references, 8 bins (487x100 in the paper)"

    def __init__(
        self,
        seed: int = 43,
        scale: float = 1.0,
        num_galaxies: int = 512,
        num_refs: int = 64,
        num_bins: int = 8,
        block_dim: int = 128,
    ) -> None:
        super().__init__(seed=seed, scale=scale)
        self.num_galaxies = self._int(num_galaxies)
        self.num_refs = num_refs
        self.num_bins = num_bins
        self.block_dim = block_dim

    @staticmethod
    def _unit_vectors(rng, count):
        v = rng.randn(count, 3)
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def build(self, gpu) -> LaunchSpec:
        n, m, bins = self.num_galaxies, self.num_refs, self.num_bins
        galaxies = self._unit_vectors(self.rng, n)  # (n, 3) point-major
        refs = self._unit_vectors(self.rng, m)  # (m, 3)

        mem = gpu.memory
        base_gal = mem.alloc_array(galaxies)
        base_ref = mem.alloc_array(refs)
        base_hist = mem.alloc_array(np.zeros(n * bins))

        b = KernelBuilder("tpacf")
        # Point-major (x, y, z) galaxy records give every lane a 24-byte
        # stride: deliberately coalescing-hostile, exactly like the real
        # TPACF AoS layout the paper's memory-divergence numbers rely on.
        tid = b.sreg(Special.GTID)
        in_range = b.pred()
        b.setp(in_range, CmpOp.LT, tid, float(n))
        with b.if_then(in_range):
            gal_addr = b.reg()
            b.mad(gal_addr, tid, 24.0, b.const(float(base_gal)))
            gx = b.ld(gal_addr)
            gy = b.ld(gal_addr, offset=8)
            gz = b.ld(gal_addr, offset=16)
            hist_base = b.reg()
            b.mad(hist_base, tid, float(bins * 8), b.const(float(base_hist)))
            j = b.const(0.0)
            r_addr = b.const(float(base_ref))
            done = b.pred()
            with b.loop() as pairs:
                b.setp(done, CmpOp.GE, j, float(m))
                pairs.break_if(done)
                rx = b.ld(r_addr)
                ry = b.ld(r_addr, offset=8)
                rz = b.ld(r_addr, offset=16)
                dot = b.reg()
                b.mul(dot, gx, rx)
                b.mad(dot, gy, ry, dot)
                b.mad(dot, gz, rz, dot)
                # angle bucket: bin = floor(bins * (1 - dot) / 2), clamped.
                # ang = 1 - dot (immediate-first sub is not encodable, so
                # negate then add).
                ang = b.reg()
                b.neg(ang, dot)
                b.add(ang, ang, 1.0)
                binf = b.reg()
                b.mul(binf, ang, bins / 2.0)
                b.floor(binf, binf)
                b.min_(binf, binf, float(bins - 1))
                b.max_(binf, binf, 0.0)
                slot = b.reg()
                b.mad(slot, binf, 8.0, hist_base)
                count = b.ld(slot)
                b.add(count, count, 1.0)
                b.st(slot, count)
                b.add(r_addr, r_addr, 24.0)
                b.add(j, j, 1.0)
        kernel = b.build()

        grid_dim = (n + self.block_dim - 1) // self.block_dim

        def verifier(gpu_) -> bool:
            out = gpu_.memory.read_array(base_hist, n * bins).reshape(n, bins)
            dots = galaxies @ refs.T  # (n, m)
            binned = np.floor((1.0 - dots) * (bins / 2.0)).clip(0, bins - 1)
            expected = np.zeros((n, bins))
            for bin_id in range(bins):
                expected[:, bin_id] = (binned == bin_id).sum(axis=1)
            return bool(np.array_equal(out, expected))

        return LaunchSpec(
            kernel=kernel,
            grid_dim=grid_dim,
            block_dim=self.block_dim,
            buffers={"galaxies": base_gal, "refs": base_ref, "hist": base_hist},
            verifier=verifier,
        )
