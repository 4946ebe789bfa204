"""Active-mask helpers.

Masks are plain Python integers used as bit sets over warp lanes: bit ``i``
set means lane ``i`` is active.  Python ints make set algebra (and, or,
and-not) one opcode each and are arbitrarily wide, so warp sizes other than
32 work unchanged.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np


def full_mask(width: int) -> int:
    """All ``width`` lanes active."""
    return (1 << width) - 1


def popcount(mask: int) -> int:
    """Number of active lanes in ``mask``."""
    return mask.bit_count()


def lanes_of(mask: int) -> Iterator[int]:
    """Yield the indices of the active lanes in ascending order."""
    lane = 0
    while mask:
        if mask & 1:
            yield lane
        mask >>= 1
        lane += 1


def mask_from_bools(flags: Sequence[bool]) -> int:
    """Build a mask from a sequence of per-lane booleans."""
    arr = np.asarray(flags, dtype=bool)
    packed = np.packbits(arr, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


_BOOLS_CACHE = {}


def bools_from_mask(mask: int, width: int) -> np.ndarray:
    """Expand a mask into a boolean numpy vector of length ``width``.

    Results are memoized (masks repeat heavily across a run); callers must
    treat the returned array as read-only.
    """
    key = (mask, width)
    cached = _BOOLS_CACHE.get(key)
    if cached is None:
        cached = np.array(
            [(mask >> lane) & 1 == 1 for lane in range(width)], dtype=bool
        )
        cached.setflags(write=False)
        if len(_BOOLS_CACHE) < 65536:
            _BOOLS_CACHE[key] = cached
    return cached
