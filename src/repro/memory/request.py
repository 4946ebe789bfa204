"""Memory request descriptors shared across the cache hierarchy."""

from __future__ import annotations

from dataclasses import dataclass


#: Signature width and address-region granularity (see :func:`make_signature`).
SIGNATURE_BITS = 8
REGION_SHIFT = 12


def make_signature(
    pc: int, line_addr: int, bits: int = SIGNATURE_BITS, region_shift: int = REGION_SHIFT
) -> int:
    """CACP signature: xor of the low bits of the PC and the address region.

    The paper (Section 3.3) combines the lower 8 bits of the instruction PC
    with the memory address *region*.  We take 4KB regions
    (``region_shift=12``): fine enough to separate data structures, coarse
    enough that the predictor tables see stable, learnable signatures
    instead of one signature per line.
    """
    mask = (1 << bits) - 1
    return (pc & mask) ^ ((line_addr >> region_shift) & mask)


@dataclass(slots=True)
class MemRequest:
    """One cache-line access from one warp's memory instruction.

    Valid only during the call it is passed to: each LSU rewrites its one
    request per instruction and per line, so keep fields, not requests.

    Attributes:
        line_addr: line-aligned byte address.
        pc: issuing instruction's PC (signature component).
        warp_key: (sm_id, block_id, warp_id) identifying the issuing warp.
        is_load: load vs. store.
        is_critical: CPL's criticality verdict for the issuing warp at issue
            time; consumed by CACP and by the per-criticality statistics.
        cycle: the line's LSU cycle (one line per cycle from the issue).
        signature: CACP/SHiP signature (filled by the LSU).
    """

    line_addr: int
    pc: int
    warp_key: tuple
    is_load: bool
    is_critical: bool
    cycle: float
    signature: int = 0
