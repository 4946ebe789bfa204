"""One-call event recording: run a (workload, scheme) cell with a bus.

:func:`record_events` is the programmatic counterpart of ``repro events
record``: it builds an events-enabled config, attaches any caller
collectors to its bus *before* launch, runs the cell through
:func:`repro.experiments.runner.simulate_cell` — the routine
:func:`~repro.experiments.runner.run_scheme` runs it with — and hands back
``(result, bus)``.

Kept in its own module (and exported lazily from ``repro.obs``) because
it imports the GPU and the experiment runner — far too heavy for the
``repro.obs`` leaf modules that the simulator hot paths import.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from ..config import GPUConfig
from .bus import EventBus, bus_from_spec
from .stalls import StallAccounting


def record_events(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    collectors: Iterable = (),
    check: bool = True,
) -> Tuple[object, EventBus]:
    """Run one cell with the event bus live; return ``(result, bus)``.

    If ``config`` has ``events == "off"`` it is upgraded to ``"on"`` —
    asking to record with events disabled is never what the caller meant.
    The result is the one :func:`~repro.experiments.runner.run_scheme`
    returns for the cell, provenance included.

    With ``config.sampling != "off"`` the bus observes the *sampled*
    replay: the stream covers only the selected subset (under renumbered
    block ids in blocks mode) and the returned result is a
    :class:`~repro.stats.sampling.SampledRunResult`.  Persisted event
    streams carry the sampling spec in their provenance metadata.
    """
    from ..experiments.runner import simulate_cell

    base = config or GPUConfig.default_sim()
    if base.events == "off":
        base = base.with_events("on")
    bus = bus_from_spec(base.events)
    assert bus is not None  # events != "off" by construction
    for collector in collectors:
        bus.attach(collector)
    return simulate_cell(workload, scheme, scale, base, check=check,
                         bus=bus), bus


def record_stalls(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    check: bool = True,
) -> Tuple[object, StallAccounting]:
    """Convenience wrapper: record with a stall aggregator attached.

    Returns ``(result, stall_accounting)`` — the Fig 2c breakdown for one
    cell in a single call (used by ``repro profile --compare``'s stall
    columns and ``repro events stats``).
    """
    stalls = StallAccounting()
    result, _bus = record_events(
        workload, scheme, scale=scale, config=config,
        collectors=(stalls,), check=check,
    )
    return result, stalls
