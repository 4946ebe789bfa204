"""Recording half of the trace-driven frontend.

A :class:`TraceRecorder` attaches to an executing :class:`~repro.gpu.GPU`
(``gpu.attach_recorder(recorder)``).  Each warp is handed its own
:class:`~repro.trace.format.WarpStream` when its block becomes resident
(:meth:`TraceRecorder.open_stream`), and the SM's issue path appends to
those columns itself — *after* functional execution, *before* timing, in
the branch of ``_issue`` that already knows the instruction's kind — so a
recorded instruction costs two or three typed-array appends and no call
into this module.  Recording is passive: it never perturbs scheduling or
timing, so the recording run's own
:class:`~repro.stats.counters.RunResult` is a normal execution result.

The per-warp streams are *schedule-invariant* for race-free kernels (each
thread reads inputs and writes its own outputs; the ISA has no atomics), so
a trace recorded under any scheduler replays bit-identically under every
scheme — ``tests/test_trace_parity.py`` asserts exactly this.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..config import GPUConfig
from ..errors import ConfigError
from .format import LaunchTrace, TraceProgram, WarpStream


class TraceRecorder:
    """Hands out per-warp columns during execution and seals the program."""

    def __init__(self, config: GPUConfig) -> None:
        if config.warp_size > 64:
            raise ConfigError(
                f"cannot record a trace at warp_size={config.warp_size}: "
                "trace columns hold 64-bit lane masks (run it with "
                "config.with_frontend('execute'))"
            )
        self.config = config
        self.launches: List[LaunchTrace] = []
        self._current: Optional[Dict[Tuple[int, int], WarpStream]] = None

    # ------------------------------------------------------------------
    # GPU / SM hooks
    # ------------------------------------------------------------------
    def begin_launch(self, kernel: Any, grid_dim: int, block_dim: int) -> None:
        """Called by :meth:`repro.gpu.GPU.launch` before dispatch."""
        launch = LaunchTrace(kernel=kernel, grid_dim=grid_dim, block_dim=block_dim)
        self.launches.append(launch)
        self._current = launch.warps

    def open_stream(self, block_id: int, warp_id_in_block: int) -> Optional[WarpStream]:
        """SM ``trace_sink`` hook: the columns a newly resident warp records
        into (``None`` outside a launch window)."""
        streams = self._current
        if streams is None:
            return None
        stream = streams[(block_id, warp_id_in_block)] = WarpStream()
        return stream

    # ------------------------------------------------------------------
    def finish(
        self,
        workload: str = "",
        scale: float = 1.0,
        scheme: str = "",
        **meta: Any,
    ) -> TraceProgram:
        """Seal the recording into a saveable :class:`TraceProgram`."""
        from .. import __version__

        self._current = None
        info = {"recorded_scheme": scheme, "simulator_version": __version__}
        info.update(meta)
        return TraceProgram(
            functional_fingerprint=self.config.functional_fingerprint(),
            workload=workload,
            scale=scale,
            warp_size=self.config.warp_size,
            line_size=self.config.l1d.line_size,
            meta=info,
            launches=self.launches,
        )


def record_workload(
    workload: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    scheme: str = "rr",
    check: bool = True,
    oracle: Optional[dict] = None,
    **workload_kwargs: Any,
) -> Tuple[Any, TraceProgram]:
    """Record one workload end to end; returns ``(result, program)``.

    Executes the workload once (baseline round-robin scheduler by default —
    any scheme yields the same functional streams) with a recorder
    attached.  The returned result is a normal execution-driven
    :class:`~repro.stats.counters.RunResult`; the returned
    :class:`TraceProgram` replays it bit-identically under any scheme and
    notes in ``meta["verified"]`` whether the run checked its results.
    """
    # Local imports: keep repro.trace importable without the full simulator.
    from ..core.cawa import apply_scheme
    from ..gpu import GPU
    from ..workloads import make_workload

    cfg = apply_scheme(config or GPUConfig.default_sim(), scheme)
    recorder = TraceRecorder(cfg)
    gpu = GPU(cfg, oracle=oracle)
    gpu.attach_recorder(recorder)
    wl = make_workload(workload, scale=scale, **workload_kwargs)
    result = wl.run(gpu, scheme=scheme, check=check)
    program = recorder.finish(workload=workload, scale=scale, scheme=scheme,
                              verified=check)
    result.trace_id = program.trace_id
    return result, program
