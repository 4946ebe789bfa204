"""Load-store unit: memory coalescing and hierarchy timing per warp access.

The coalescer merges the active lanes' byte addresses into distinct cache
lines (Fermi coalesces within 128B segments).  Each distinct line costs one
LSU slot cycle and one L1D access; poorly-coalesced (irregular) access
patterns therefore serialize — one of the paper's sources of warp
criticality.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..isa.instructions import Instruction, MemSpace
from ..memory.cache import Cache
from ..memory.hierarchy import MemoryHierarchy
from ..memory.mshr import MSHRFile
from ..memory.request import REGION_SHIFT, SIGNATURE_BITS, MemRequest
from ..obs.events import Ev
from ..simt.mask import bools_from_mask
from ..simt.warp import Warp

_EV_LSU_ISSUE = int(Ev.LSU_ISSUE)
_SIG_MASK = (1 << SIGNATURE_BITS) - 1


def coalesce_lines(addrs: np.ndarray, mask: int, line_size: int) -> List[int]:
    """Distinct line addresses touched by the active lanes, ascending.

    The rule recorded traces bake in: the functional pass
    (:mod:`repro.trace.functional`) computes the same lists for a whole
    group of warps as a row sort, and ``tests/test_trace_functional.py``
    holds the two together.
    """
    active = bools_from_mask(mask, addrs.shape[0])
    lines = addrs[active].astype(np.int64) // line_size * line_size
    return sorted(set(lines.tolist()))


class LoadStoreUnit:
    """One SM's memory access port."""

    def __init__(
        self,
        sm_id: int,
        l1d: Cache,
        mshr: MSHRFile,
        hierarchy: MemoryHierarchy,
        shared_latency: int = 8,
    ) -> None:
        self.sm_id = sm_id
        self.l1d = l1d
        self.mshr = mshr
        self.hierarchy = hierarchy
        self.shared_latency = shared_latency
        self._next_free = 0.0
        #: Event bus (``repro.obs``) or ``None``; set by ``wire_gpu``.
        self.obs = None
        # Statistics.
        self.global_accesses = 0
        self.line_accesses = 0
        self.l1_misses = 0

    def coalesce(self, addrs: np.ndarray, mask: int) -> List[int]:
        """Distinct line addresses touched by the active lanes, ascending."""
        return coalesce_lines(addrs, mask, self.l1d.config.line_size)

    def issue(
        self,
        warp: Warp,
        inst: Instruction,
        addrs: Optional[np.ndarray],
        mask: int,
        now: float,
        is_critical: bool,
        lines: Optional[List[int]] = None,
    ) -> Tuple[float, int]:
        """Perform the timing walk for one warp memory instruction.

        Returns ``(completion_cycle, num_line_accesses)``.  Shared-memory
        accesses bypass the cache hierarchy with a short fixed latency.
        ``lines`` (trace replay) supplies pre-coalesced line addresses and
        skips the coalescer; execution-driven callers leave it ``None``.
        """
        if mask == 0:
            return now + 1, 0
        if inst.space is MemSpace.SHARED:
            return now + self.shared_latency, 0

        if lines is None:
            lines = self.coalesce(addrs, mask)
        self.global_accesses += 1
        completion = now + 1
        next_free = self._next_free
        start = now if now > next_free else next_free
        # Everything but the line address is the same for every request of
        # one warp instruction (the signature is make_signature(pc, line)).
        pc = inst.pc
        pc_bits = pc & _SIG_MASK
        is_load = inst.is_load
        block_id = warp.block.block_id
        warp_id = warp.warp_id_in_block
        warp_key = (self.sm_id, block_id, warp_id)
        l1d = self.l1d
        mshr = self.mshr
        access = self.hierarchy.access
        misses = 0
        issue_time = start  # one coalesced access per LSU cycle
        for line_addr in lines:
            req = MemRequest(
                line_addr, pc, warp_key, is_load, is_critical, issue_time,
                (pc_bits ^ (line_addr >> REGION_SHIFT)) & _SIG_MASK,
            )
            l1_hit, done, _ = access(l1d, mshr, req, issue_time)
            if not l1_hit:
                misses += 1
            if done > completion:
                completion = done
            issue_time += 1
        num_lines = len(lines)
        self.line_accesses += num_lines
        self.l1_misses += misses
        self._next_free = start + num_lines
        if self.obs is not None:
            self.obs.emit((
                _EV_LSU_ISSUE, now, self.sm_id, block_id, warp_id, pc,
                num_lines, completion,
            ))
        return completion, num_lines
