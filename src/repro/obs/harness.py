"""One-call event recording: run a (workload, scheme) cell with a bus.

:func:`record_events` is the programmatic counterpart of ``repro events
record``: it builds an events-enabled config, attaches any caller
collectors *before* launch, runs the cell — a replay of the workload's
trace (recorded first if need be) unless the config says
``with_frontend("execute")`` — and hands back ``(result, bus)``.

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
    The stream is identical whether the cell replays (the default) or
    records in place (``tests/test_obs_parity.py``).

    With ``config.sampling != "off"`` the bus observes the *sampled*
    replay: the stream covers only the selected subset (under renumbered
    block ids in blocks mode) and the returned result is a
    :class:`~repro.stats.sampling.SampledRunResult`.  Persisted event
    streams carry the sampling spec in their provenance metadata.
    """
    from ..core.cawa import apply_scheme
    from ..experiments.runner import build_oracle, load_or_record_program
    from ..gpu import GPU
    from ..workloads import make_workload

    base = config or GPUConfig.default_sim()
    if base.events == "off":
        base = base.with_events("on")
    cfg = apply_scheme(base, scheme)

    bus = bus_from_spec(cfg.events)
    assert bus is not None  # events != "off" by construction
    for collector in collectors:
        bus.attach(collector)

    oracle = (build_oracle(workload, scale, config)
              if cfg.scheduler_name == "caws" else None)

    if cfg.frontend == "trace":
        from .. import trace as trace_mod

        program = load_or_record_program(workload, scheme, scale, base, check)
        if cfg.sampling != "off":
            from ..sampling import calibrate as sampling_calibrate
            from ..sampling.replay import replay_sampled

            envelope, source = sampling_calibrate.envelope_for(
                workload, cfg.sampling
            )
            result = replay_sampled(
                program, cfg, scheme=scheme, oracle=oracle, bus=bus,
                envelope_rel=envelope, envelope_source=source,
            )
            return result, bus
        results = trace_mod.replay_program(
            program, cfg, scheme=scheme, oracle=oracle, bus=bus
        )
        return results[-1], bus

    gpu = GPU(cfg, oracle=oracle, obs=bus)
    wl = make_workload(workload, scale=scale)
    result = wl.run(gpu, scheme=scheme, check=check)
    return result, bus


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
