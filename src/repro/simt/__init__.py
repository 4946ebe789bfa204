"""SIMT execution state the timing model keeps per warp and block.

The timed :class:`Warp` (a recorded stream's columns, a cursor, the
scoreboard lists, statistics) and :class:`ThreadBlock` (life-cycle,
barriers), plus the active-mask helpers.  Lane values are
computed before timing, by the recorder's functional pass
(:mod:`repro.trace.functional`); the per-warp reference it is tested
against lives under ``tests/reference/``.
"""

from .block import ThreadBlock
from .mask import full_mask, lanes_of, popcount
from .warp import Warp, WarpStatus

__all__ = [
    "ThreadBlock",
    "Warp",
    "WarpStatus",
    "full_mask",
    "lanes_of",
    "popcount",
]
