"""Replay half of the trace store: time a recorded program.

Replay hands a recorded program to the timing model, which reads recorded
streams natively: a :class:`~repro.gpu.GPU` built with ``trace=`` gives each
launch's :class:`~repro.trace.format.LaunchTrace` to its block dispatcher,
every :class:`~repro.simt.warp.Warp` that becomes resident takes its own
:class:`~repro.trace.format.WarpStream` from it, and
:meth:`repro.sm.sm.StreamingMultiprocessor._issue` consumes one record per
issue — PC from the ``pcs`` column, branch outcome or memory effect mask and
pre-coalesced line addresses from ``aux`` — through the same scoreboard,
LSU, caches and DRAM every launch goes through.  There is no adapter layer
and no second issue path: a launch *without* a stored program is timed the
same way, from a recording :meth:`repro.gpu.GPU.launch` makes in place.
"""

from __future__ import annotations

from typing import Optional

from ..config import GPUConfig
from .format import TraceProgram


def replay_program(
    program: TraceProgram,
    config: Optional[GPUConfig] = None,
    scheme: str = "",
    oracle: Optional[dict] = None,
    max_cycles: float = 5e7,
    bus=None,
):
    """Replay every launch of ``program``; returns the list of results.

    The kernel and launch geometry come from the trace itself, so replay
    needs no workload rebuild (and performs no functional verification —
    there are no computed values to verify).  ``bus`` is an optional
    :class:`repro.obs.bus.EventBus` the replay's GPU is wired to (callers
    attach collectors first, e.g. the Fig 3 reuse-distance profiler or the
    Fig 11 accuracy tracker).
    """
    from ..gpu import GPU  # local: avoid a gpu <-> trace import cycle

    gpu = GPU(config or GPUConfig.default_sim(), oracle=oracle,
              max_cycles=max_cycles, trace=program, obs=bus)
    results = []
    for launch in program.launches:
        results.append(
            gpu.launch(launch.kernel, launch.grid_dim, launch.block_dim, scheme=scheme)
        )
    return results
