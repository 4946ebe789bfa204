"""SIMT execution state: warps, thread blocks, divergence, registers.

Two halves.  What the timing model keeps per warp and block: the timed
:class:`Warp` (a recorded stream's columns, a cursor, the scoreboard
lists, statistics) and :class:`ThreadBlock` (life-cycle, barriers).  And
the *reference* value machinery the recorder's functional pass is tested
against, one warp at a time: the reconvergence stack that serializes
divergent branch paths, the register file with its scoreboard walk, and
the functional executor, which owns its warps' lane state.  Nothing in
:mod:`repro.sm` or :mod:`repro.gpu` imports the second half.
"""

from .block import ThreadBlock
from .executor import FunctionalExecutor
from .mask import full_mask, lanes_of, popcount
from .registers import WarpRegisterFile
from .stack import SIMTStack, StackEntry
from .warp import Warp, WarpStatus

__all__ = [
    "FunctionalExecutor",
    "SIMTStack",
    "StackEntry",
    "ThreadBlock",
    "Warp",
    "WarpRegisterFile",
    "WarpStatus",
    "full_mask",
    "lanes_of",
    "popcount",
]
