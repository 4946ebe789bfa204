"""SIMT execution state: warps, thread blocks, divergence, registers.

This subpackage models the per-warp machinery of an SM: the reconvergence
stack that serializes divergent branch paths, the register file with a
ready-cycle scoreboard, and the functional executor that computes lane
results at issue time (timing is handled by the SM pipeline in
:mod:`repro.sm`).
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
