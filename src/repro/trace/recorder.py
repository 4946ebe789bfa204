"""Recording half of the trace-driven frontend.

A :class:`TraceRecorder` attaches to an execution-driven :class:`~repro.gpu.GPU`
(``gpu.attach_recorder(recorder)``) and observes every issued instruction via
the SM's ``trace_sink`` hook — *after* functional execution, *before* timing —
capturing each warp's dynamic stream: PC, active mask, conditional-branch
outcomes, and coalesced memory line addresses.  Recording is passive: it
never perturbs scheduling or timing, so the recording run's own
:class:`~repro.stats.counters.RunResult` is a normal execute-frontend result.

The per-warp streams are *schedule-invariant* for race-free kernels (each
thread reads inputs and writes its own outputs; the ISA has no atomics), so
a trace recorded under any scheduler replays bit-identically under every
scheme — ``tests/test_trace_parity.py`` asserts exactly this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import GPUConfig
from ..isa.instructions import Opcode
from .format import LaunchTrace, TraceProgram


class TraceRecorder:
    """Captures per-warp dynamic instruction streams during execution."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.line_size = config.l1d.line_size
        self.launches: List[LaunchTrace] = []
        self._current: Optional[Dict[Tuple[int, int], List]] = None

    # ------------------------------------------------------------------
    # GPU hooks
    # ------------------------------------------------------------------
    def begin_launch(self, kernel, grid_dim: int, block_dim: int) -> None:
        """Called by :meth:`repro.gpu.GPU.launch` before dispatch."""
        launch = LaunchTrace(kernel=kernel, grid_dim=grid_dim, block_dim=block_dim)
        self.launches.append(launch)
        self._current = launch.warps

    def record(self, warp, inst, active_mask: int, result) -> None:
        """SM ``trace_sink`` hook: append one issue record for ``warp``.

        ``result`` is the :class:`~repro.simt.executor.ExecResult` of the
        functional execution that just happened; the branch outcome and the
        lanes' memory addresses are read from it.
        """
        streams = self._current
        if streams is None:  # issue outside a launch window: ignore
            return
        key = (warp.block.block_id, warp.warp_id_in_block)
        stream = streams.get(key)
        if stream is None:
            stream = streams[key] = []
        op = inst.op
        if op is Opcode.LD or op is Opcode.ST:
            # ``mem_lines`` is the SM's one coalescing of this access (the
            # LSU walks the same list); ``None`` for shared-space and
            # fully-predicated-off accesses.
            stream.append([inst.pc, active_mask, [result.mem_mask, result.mem_lines]])
        elif op is Opcode.BRA and inst.pred is not None:
            stream.append([inst.pc, active_mask, result.taken_mask])
        else:
            stream.append([inst.pc, active_mask])

    # ------------------------------------------------------------------
    def finish(
        self,
        workload: str = "",
        scale: float = 1.0,
        scheme: str = "",
        **meta,
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
            line_size=self.line_size,
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
    **workload_kwargs,
):
    """Record one workload end to end; returns ``(result, program)``.

    Runs the workload once under the execute frontend (baseline round-robin
    scheduler by default — any scheme yields the same functional streams)
    with a recorder attached.  The returned result is a normal
    execution-driven :class:`~repro.stats.counters.RunResult`; the returned
    :class:`TraceProgram` replays it bit-identically under any scheme.
    """
    # Local imports: keep repro.trace importable without the full simulator.
    from ..core.cawa import apply_scheme
    from ..gpu import GPU
    from ..workloads import make_workload

    base = config or GPUConfig.default_sim()
    cfg = apply_scheme(base, scheme).with_frontend("execute")
    recorder = TraceRecorder(cfg)
    gpu = GPU(cfg, oracle=oracle)
    gpu.attach_recorder(recorder)
    wl = make_workload(workload, scale=scale, **workload_kwargs)
    result = wl.run(gpu, scheme=scheme, check=check)
    program = recorder.finish(workload=workload, scale=scale, scheme=scheme)
    result.frontend = "execute"
    result.trace_id = program.trace_id
    return result, program
