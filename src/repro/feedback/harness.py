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
    order so streams from different frontends compare with ``==``.

    A sampled config (``config.sampling != "off"``) raises
    :class:`~repro.errors.ConfigError`: nothing taps a sampled replay, and
    replaying the whole trace instead would return exact numbers under a
    config that asked for estimates.
    """
    from ..core.cawa import apply_scheme
    from ..errors import ConfigError
    from ..experiments.runner import build_oracle, load_or_record_program
    from ..gpu import GPU
    from ..workloads import make_workload

    base = config or GPUConfig.default_sim()
    if base.sampling != "off":
        raise ConfigError(
            f"record_signals cannot tap a sampled replay (sampling="
            f"{base.sampling!r}); record signals from an exact run "
            "(config.with_sampling('off'))"
        )
    cfg = apply_scheme(base, scheme)

    tap = SignalTap()
    oracle = (build_oracle(workload, scale, config)
              if cfg.scheduler_name == "caws" else None)

    if cfg.frontend == "trace":
        from .. import trace as trace_mod

        program = load_or_record_program(workload, scheme, scale, base, check)
        results = trace_mod.replay_program(
            program, cfg, scheme=scheme, oracle=oracle, feedback_tap=tap
        )
        return results[-1], sort_signals(tap.records)

    gpu = GPU(cfg, oracle=oracle)
    attach_signal_tap(gpu, tap)
    wl = make_workload(workload, scale=scale)
    result = wl.run(gpu, scheme=scheme, check=check)
    return result, sort_signals(tap.records)
