"""One-call event recording: run a (workload, scheme) cell with a bus.

:func:`record_events` is what ``repro events stats|export`` run: it
builds an event bus from a buffer spec, attaches any caller collectors to
it *before* launch, runs the cell through
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
from ..errors import ConfigError
from .bus import EventBus, bus_from_spec


def record_events(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    collectors: Iterable = (),
    check: bool = True,
    events: str = "on",
) -> Tuple[object, EventBus]:
    """Run one cell with the event bus live; return ``(result, bus)``.

    ``events`` is the bus's buffer spec (:func:`~repro.obs.bus.parse_spec`:
    ``"on"`` or ``"ring:N"``); a spec that does not parse,
    or ``"off"``, raises :class:`~repro.errors.ConfigError`.  The result
    is the one :func:`~repro.experiments.runner.run_scheme` returns for
    the cell, provenance included.

    With ``config.sampling != "off"`` the bus observes the *sampled*
    replay: the stream covers only the selected subset (under renumbered
    block ids in blocks mode) and the returned result is a
    :class:`~repro.stats.sampling.SampledRunResult`.
    """
    from ..experiments.runner import simulate_cell

    bus = bus_from_spec(events)
    if bus is None:
        raise ConfigError("record_events needs a bus: events='off' records nothing")
    for collector in collectors:
        bus.attach(collector)
    base = config or GPUConfig.default_sim()
    return simulate_cell(workload, scheme, scale, base, check=check,
                         bus=bus), bus
