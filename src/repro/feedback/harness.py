"""One-call signal recording: run a (workload, scheme) cell with a tap.

:func:`record_signals` mirrors :func:`repro.obs.harness.record_events`
for the feedback subsystem: it runs one cell with a :class:`SignalTap`
attached to every FeedbackChannel (all SM L1 channels plus the shared-L2
device channel) and hands back ``(result, signals)`` with the signals in
canonical deterministic order.

Kept in its own module (exported lazily from ``repro.feedback``) because
it imports the GPU and the experiment runner — too heavy for the leaf
modules the simulator hot paths import.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..config import GPUConfig
from .channel import SignalTap, attach_signal_tap
from .signals import sort_signals


def record_signals(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    check: bool = True,
) -> Tuple[object, List[tuple]]:
    """Run one cell recording every feedback signal; return ``(result, signals)``.

    Signals are returned in the canonical ``(cycle, sm, kind, fields)``
    order so streams from different frontends / clocks / shard counts
    compare with ``==``.
    """
    from ..core.cawa import apply_scheme
    from ..experiments.runner import build_oracle
    from ..gpu import GPU
    from ..workloads import make_workload

    base = config or GPUConfig.default_sim()
    cfg = apply_scheme(base, scheme)

    tap = SignalTap()
    oracle = (build_oracle(workload, scale, config)
              if cfg.scheduler_name == "caws" else None)

    if cfg.frontend == "trace":
        from .. import trace as trace_mod
        from ..experiments.runner import run_scheme

        program = trace_mod.load_program(workload, scale, cfg, None)
        if program is None:
            # Record the trace once through the standard runner path.
            run_scheme(
                workload, scheme, scale=scale,
                config=base.with_shards(1).with_sampling("off"),
                check=check, use_cache=False, persistent=False,
            )
            program = trace_mod.load_program(workload, scale, cfg, None)
        if program is None:  # pragma: no cover - store failure
            raise RuntimeError(
                f"could not record a trace for {workload!r} at scale {scale}"
            )
        results = trace_mod.replay_program(
            program, cfg, scheme=scheme, oracle=oracle, feedback_tap=tap
        )
        return results[-1], sort_signals(tap.records)

    gpu = GPU(cfg, oracle=oracle)
    attach_signal_tap(gpu, tap)
    wl = make_workload(workload, scale=scale)
    result = wl.run(gpu, scheme=scheme, check=check)
    return result, sort_signals(tap.records)
