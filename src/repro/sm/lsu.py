"""Load-store unit: hierarchy timing per warp memory access.

Coalescing (done when a trace is recorded) merges the active lanes' byte
addresses into distinct cache lines (Fermi coalesces within 128B segments).
Each distinct line costs one LSU slot cycle and one L1D access;
poorly-coalesced (irregular) access patterns therefore serialize — one of
the paper's sources of warp criticality.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import TraceFormatError
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
        self._hit_latency = l1d.config.hit_latency
        self._next_free = 0.0
        #: The one request this port hands the caches: each instruction
        #: rewrites its fields, each line its line, cycle and signature.
        self._req = MemRequest(0, 0, (sm_id, -1, -1), True, False, 0.0)
        #: Event bus (``repro.obs``) or ``None``; set by ``wire_gpu``.
        self.obs = None

    def issue(
        self,
        warp: Warp,
        inst: Instruction,
        mask: int,
        now: float,
        is_critical: bool,
        lines: Optional[List[int]],
    ) -> Tuple[float, int]:
        """Perform the timing walk for one warp memory instruction.

        Returns ``(completion_cycle, num_line_accesses)``.  ``lines`` are
        the recorded line addresses (:func:`coalesce_lines`), ``None`` only
        for no live lane or shared space, which bypasses the hierarchy with
        a short fixed latency.
        """
        if mask == 0:
            return now + 1, 0
        if inst.space is MemSpace.SHARED:
            return now + self.shared_latency, 0
        if lines is None:
            raise TraceFormatError(
                f"global memory record at pc={inst.pc} has live lanes but no "
                "line addresses; trace is corrupt"
            )
        completion = now + 1
        next_free = self._next_free
        start = now if now > next_free else next_free
        # The port's one request, rewritten for this instruction and then
        # per line (LSU cycle, make_signature(pc, line)): nothing keeps it.
        pc = inst.pc
        pc_bits = pc & _SIG_MASK
        block_id = warp.block.block_id
        warp_id = warp.warp_id_in_block
        req = self._req
        req.pc = pc
        req.warp_key = (self.sm_id, block_id, warp_id)
        req.is_load = inst.is_load
        req.is_critical = is_critical
        l1d = self.l1d
        probe = l1d.access
        mshr = self.mshr
        miss = self.hierarchy.miss
        hit_latency = self._hit_latency
        issue_time = start  # one coalesced access per LSU cycle
        for line_addr in lines:
            req.line_addr = line_addr
            req.cycle = issue_time
            req.signature = (pc_bits ^ (line_addr >> REGION_SHIFT)) & _SIG_MASK
            done = (issue_time + hit_latency if probe(req)
                    else miss(l1d, mshr, req, issue_time))
            if done > completion:
                completion = done
            issue_time += 1
        num_lines = len(lines)
        self._next_free = start + num_lines
        if self.obs is not None:
            self.obs.emit((
                _EV_LSU_ISSUE, now, self.sm_id, block_id, warp_id, pc,
                num_lines, completion,
            ))
        return completion, num_lines
