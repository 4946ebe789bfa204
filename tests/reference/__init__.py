"""Per-warp references the simulator's shortcuts are tested against.

The simulator computes lane values once, in the recorder's batched
functional pass (:mod:`repro.trace.functional`), and reads CPL's verdicts
off the event bus.  What lives here is the slower, independent form of
each, kept only as a test oracle:

* :mod:`.executor` — the per-warp functional executor (lane state in
  :class:`~.executor.WarpLanes`), with :mod:`.stack`'s reconvergence stack
  and :mod:`.registers`' register file with its scoreboard walk;
  ``tests/test_trace_functional.py`` holds the batched pass to it stream
  for stream;
* :mod:`.samplers` — Figs 11 and 12's old per-issue samplers, which read
  the predictor after every issue; ``tests/test_cpl_verdict.py`` holds
  the ``CPL_VERDICT`` collectors to them.
"""

from .executor import NO_EFFECT, ExecResult, FunctionalExecutor, WarpLanes, special_values
from .registers import WarpRegisterFile
from .stack import SIMTStack, StackEntry

__all__ = [
    "ExecResult",
    "FunctionalExecutor",
    "NO_EFFECT",
    "SIMTStack",
    "StackEntry",
    "WarpLanes",
    "WarpRegisterFile",
    "special_values",
]
