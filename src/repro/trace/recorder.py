"""Recording half of the trace-driven frontend.

A trace is made one way: *build -> functional pass -> verify*.  A
:class:`TraceRecorder` stands in for the device while a workload builds and
launches — it owns a :class:`~repro.memory.data.GlobalMemory` for the
inputs and answers ``launch`` with the functional pass of
:mod:`repro.trace.functional`, which steps every warp of the launch through
the kernel with no SM, scheduler, cache or clock and hands back the
per-warp streams — and the workload's own NumPy reference then checks the
memory it left behind.  Nothing on the timing model's issue path knows a
trace is being made; timing is always a replay of the result
(:func:`repro.trace.replay.replay_program`).

The per-warp streams are *schedule-invariant* for race-free kernels (each
thread reads inputs and writes its own outputs; the ISA has no atomics), so
one recording replays bit-identically under every scheme —
``tests/test_trace_parity.py`` asserts exactly this against the execute
frontend — and the functional pass refuses
(:class:`~repro.errors.TraceInvarianceError`) a launch in which a warp
loads what another warp stored, or stores what another loaded, with no
barrier of their block in between.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Tuple

from ..config import GPUConfig
from ..memory.data import GlobalMemory
from .format import LaunchTrace, TraceProgram
from .functional import record_launch


class TraceRecorder:
    """The device a workload is recorded on: global memory and ``launch``,
    nothing else."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.memory = GlobalMemory()
        self.launches: List[LaunchTrace] = []
        #: Functional steps taken so far, all launches.
        self.steps = 0

    def launch(self, kernel: Any, grid_dim: int, block_dim: int,
               scheme: str = "") -> LaunchTrace:
        """Run ``kernel`` functionally and keep its streams (``scheme`` is
        accepted for :meth:`repro.workloads.base.Workload.run`; no
        scheduler takes part)."""
        from ..gpu.gpu import check_launch  # local: gpu imports the executor stack

        check_launch(self.config, kernel, grid_dim, block_dim)
        launch, steps = record_launch(
            kernel, grid_dim, block_dim, self.memory,
            self.config.warp_size, self.config.l1d.line_size,
        )
        self.launches.append(launch)
        self.steps += steps
        return launch

    def finish(
        self,
        workload: str = "",
        scale: float = 1.0,
        scheme: str = "",
        **meta: Any,
    ) -> TraceProgram:
        """Seal the recording into a saveable :class:`TraceProgram`."""
        from .. import __version__

        info = {"recorded_scheme": scheme, "simulator_version": __version__,
                "steps": self.steps}
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


def record_program(
    workload: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    scheme: str = "",
    check: bool = True,
    **workload_kwargs: Any,
) -> TraceProgram:
    """Build ``workload``, run its launches functionally and (``check``)
    verify what they computed; returns the :class:`TraceProgram`.

    ``meta["verified"]`` notes whether the outputs were checked and
    ``meta["steps"]`` how many batched steps the pass took; ``scheme`` is
    provenance only (``meta["recorded_scheme"]``).  The wall time of the
    whole thing is left on the program (``record_s``, not stored).
    """
    from ..workloads import make_workload  # local: keep repro.trace light

    started = time.perf_counter()  # sanitize: waive DET002 -- provenance (RunResult.record_s), never a result
    recorder = TraceRecorder(config or GPUConfig.default_sim())
    make_workload(workload, scale=scale, **workload_kwargs).run(
        recorder, scheme=scheme, check=check)
    program = recorder.finish(workload=workload, scale=scale, scheme=scheme,
                              verified=check)
    program.record_s = time.perf_counter() - started  # sanitize: waive DET002 -- as above
    return program


def replay_recorded(program: TraceProgram, replay: Callable[[], Any]) -> Any:
    """Run ``replay`` — a replay of ``program``, which this process has
    just recorded — and stamp the result's provenance with the recording:
    ``recorded``, what the functional pass and the replay each cost, and
    the pass's step and warp counts."""
    started = time.perf_counter()  # sanitize: waive DET002 -- provenance (RunResult.replay_s), never a result
    result = replay()
    result.replay_s = time.perf_counter() - started  # sanitize: waive DET002 -- as above
    result.recorded = True
    result.record_s = program.record_s
    result.record_steps = program.meta.get("steps", 0)
    result.record_warps = program.warp_count
    return result


def record_workload(
    workload: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    scheme: str = "rr",
    check: bool = True,
    oracle: Optional[dict] = None,
    **workload_kwargs: Any,
) -> Tuple[Any, TraceProgram]:
    """Record one workload and replay it once; returns ``(result, program)``.

    The returned :class:`~repro.stats.counters.RunResult` is the replay of
    the fresh recording under ``scheme`` (``recorded=True`` in its
    provenance); the :class:`TraceProgram` replays bit-identically under
    any other scheme.
    """
    from ..core.cawa import apply_scheme
    from .replay import replay_program

    cfg = apply_scheme(config or GPUConfig.default_sim(), scheme)
    program = record_program(workload, scale, cfg, scheme, check, **workload_kwargs)
    result = replay_recorded(program, lambda: replay_program(
        program, cfg, scheme=scheme, oracle=oracle)[-1])
    return result, program
