"""One-call signal recording: run a (workload, scheme) cell with a tap.

:func:`record_signals` mirrors :func:`repro.obs.harness.record_events`
for the feedback subsystem: it runs one cell through
:func:`repro.experiments.runner.simulate_cell` — the routine
:func:`~repro.experiments.runner.run_scheme` runs it with — with a
:class:`SignalTap` attached to every FeedbackChannel (all SM L1 channels
plus the shared-L2 device channel) and hands back ``(result, signals)``
with the signals in canonical deterministic order.

Kept in its own module (exported lazily from ``repro.feedback``) because
it imports the GPU and the experiment runner — too heavy for the leaf
modules the simulator hot paths import.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..config import GPUConfig
from .channel import SignalTap
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
    order so two recordings of one cell compare with ``==``.

    A sampled config (``config.sampling != "off"``) raises
    :class:`~repro.errors.ConfigError`: nothing taps a sampled replay, and
    replaying the whole trace instead would return exact numbers under a
    config that asked for estimates.
    """
    from ..experiments.runner import simulate_cell

    tap = SignalTap()
    result = simulate_cell(workload, scheme, scale,
                           config or GPUConfig.default_sim(), check=check,
                           feedback_tap=tap)
    return result, sort_signals(tap.records)
