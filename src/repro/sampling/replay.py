"""Sampled replay: subsample, replay through the unchanged timing model,
extrapolate.

:func:`replay_sampled` is the sampling counterpart of
:func:`repro.trace.replay.replay_program`: it derives the sub-program of
blocks the config's ``sampling`` spec selects, replays it through the ordinary replay
machinery (any scheme), and hands the measured subset to
the estimators
(:func:`repro.stats.sampling.estimate_sampled_result`).  The timing model
never learns it is being sampled — the derived program is a fully valid
trace.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import GPUConfig
from ..stats.sampling import SampledRunResult, estimate_sampled_result
from ..trace.format import TraceProgram
from .plan import LaunchPlan, subsample_program


def remap_oracle(
    oracle: Optional[Dict[Tuple[int, int], float]], plan: LaunchPlan
) -> Optional[Dict[Tuple[int, int], float]]:
    """Rekey a CAWS oracle from original block ids to the dense sampled ids.

    The oracle profiles per-warp execution times keyed ``(block_id,
    warp_id_in_block)``; the derived program renumbers selected blocks to
    ``0..k-1``, so the oracle must follow.  Keys for unsampled blocks are
    dropped; missing keys (an oracle profiled under a different subset)
    fall back to the scheduler's default behavior.
    """
    if oracle is None:
        return oracle
    remapped: Dict[Tuple[int, int], float] = {}
    for new_id, original in enumerate(plan.selected):
        for (block_id, warp_id), value in oracle.items():
            if block_id == original:
                remapped[(new_id, warp_id)] = value
    return remapped


def replay_sampled(
    program: TraceProgram,
    config: GPUConfig,
    scheme: str = "",
    oracle: Optional[dict] = None,
    max_cycles: float = 5e7,
    bus=None,
) -> SampledRunResult:
    """Replay the config-selected subset of ``program`` and extrapolate.

    A bus attaches to the sampled replay and therefore sees only the
    selected subset — documented partial coverage (docs/sampling.md).
    Returns the estimate for the program's *last* launch, mirroring the
    runner's exact-path convention.
    """
    from ..trace.replay import replay_program  # heavy; keep import local

    derived, plans = subsample_program(program, config.sampling)
    results = replay_program(
        derived,
        config,
        scheme=scheme,
        oracle=remap_oracle(oracle, plans[-1]),
        max_cycles=max_cycles,
        bus=bus,
    )
    return estimate_sampled_result(results[-1], plans[-1], spec=config.sampling)
