"""Subset selection over recorded traces: profiles, strata, derived programs.

The sampling frontend never touches the timing model.  It works entirely on
the *functional* side: given a recorded :class:`~repro.trace.format.TraceProgram`
it builds a smaller, fully valid program that the ordinary replay machinery
consumes unchanged, plus a :class:`LaunchPlan` describing exactly what was
kept so the estimators (:mod:`repro.stats.sampling`) can extrapolate.

``blocks:P`` (see ``docs/sampling.md``) is stratified cluster sampling of
whole thread blocks.  Strata start from each block's *stream signature* —
the sorted tuple of its per-warp dynamic record counts.  Blocks sharing a
signature executed the same dynamic path lengths (a strictly stronger
grouping than the static CPL envelope), so within-stratum variance is
what the jackknife has to measure and between-stratum structure is
covered by sampling at least one block from every stratum.  Irregular
workloads (bfs) can give every block a unique signature, and
one-block-per-stratum would then select *everything*; signature groups
are therefore merged — ordered by mean per-block work, so merged strata
stay homogeneous — into at most ``floor(P * num_blocks)`` rank strata,
which keeps the realized rate honest while preserving the work-size
stratification.  Selected blocks are renumbered to a dense ``0..k-1``
grid (ascending original id, preserving dispatch order) and the derived
launch shares the original :class:`~repro.trace.format.WarpStream`
columns — zero-copy.

The planner also computes the block-level functional totals (record
counts and active-lane popcounts) for the *whole* trace in one linear
scan — exact, cheap, and the anchor that lets the estimator report
instruction counts with zero error and reduce everything else to timing
ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..trace.format import LaunchTrace, TraceProgram, WarpStream
from .spec import SamplingSpec, derive_rng, parse_sampling_spec

#: Attribute used to memoize per-program profiles (profiles are pure
#: functions of the streams, and loaded programs are shared).
_PROFILE_ATTR = "_sampling_profiles"


@dataclass
class BlockProfile:
    """Exact functional totals for one recorded thread block."""

    block_id: int
    records: int  # warp instructions = number of dynamic records
    threads: int  # thread instructions = sum of active-mask popcounts
    signature: Tuple  # sorted per-warp record counts (stratum key)


@dataclass
class LaunchPlan:
    """What the sampler kept from one launch, and at what weight."""

    rate: float
    #: Original ids of the replayed blocks, ascending == their new dense
    #: ids (``selected[new_id] == original_id``).
    selected: List[int]
    #: Strata as lists of original block ids (every block of the launch
    #: appears in exactly one stratum).
    strata: List[List[int]]
    #: Exact per-block functional totals for *every* block of the launch.
    profiles: Dict[int, BlockProfile]

    # -- derived totals -------------------------------------------------
    @property
    def total_blocks(self) -> int:
        return len(self.profiles)

    @property
    def total_records(self) -> int:
        return sum(p.records for p in self.profiles.values())

    @property
    def total_threads(self) -> int:
        return sum(p.threads for p in self.profiles.values())

    @property
    def replayed_records(self) -> int:
        return sum(self.profiles[b].records for b in self.selected)

    def original_id(self, new_id: int) -> int:
        return self.selected[new_id]


# ----------------------------------------------------------------------
# Profiling (exact functional totals)
# ----------------------------------------------------------------------
def _streams_by_block(launch: LaunchTrace) -> Dict[int, Dict[int, WarpStream]]:
    per_block: Dict[int, Dict[int, WarpStream]] = {}
    for (block_id, warp_id), stream in launch.warps.items():
        per_block.setdefault(block_id, {})[warp_id] = stream
    return per_block


def profile_launch(launch: LaunchTrace) -> Dict[int, BlockProfile]:
    """One linear scan: per-block record and active-lane totals."""
    profiles: Dict[int, BlockProfile] = {}
    for block_id, warps in sorted(_streams_by_block(launch).items()):
        counts = [len(stream) for stream in warps.values()]
        profiles[block_id] = BlockProfile(
            block_id=block_id,
            records=sum(counts),
            threads=sum(stream.threads() for stream in warps.values()),
            signature=tuple(sorted(counts)),
        )
    return profiles


def profile_program(program: TraceProgram) -> List[Dict[int, BlockProfile]]:
    """Per-launch profiles, memoized on the program object itself."""
    cached = getattr(program, _PROFILE_ATTR, None)
    if cached is not None:
        return cached
    profiles = [profile_launch(launch) for launch in program.launches]
    setattr(program, _PROFILE_ATTR, profiles)
    return profiles


# ----------------------------------------------------------------------
# Blocks mode: stratified cluster sampling
# ----------------------------------------------------------------------
def build_strata(
    profiles: Dict[int, BlockProfile], rate: Optional[float] = None
) -> List[List[int]]:
    """Group block ids by record-stream signature (deterministic order).

    With a ``rate``, signature groups are merged into at most
    ``max(1, floor(rate * num_blocks))`` strata so that selecting one
    block per stratum can never exceed the requested rate.  Groups are
    ordered by mean per-block record count before merging, keeping each
    merged stratum a contiguous band of similarly-sized blocks.
    """
    groups: Dict[Tuple, List[int]] = {}
    for block_id in sorted(profiles):
        groups.setdefault(profiles[block_id].signature, []).append(block_id)
    ordered = [groups[sig] for sig in sorted(groups)]
    if rate is None:
        return ordered

    cap = max(1, int(rate * len(profiles)))
    if len(ordered) <= cap:
        return ordered

    def _mean_records(members: List[int]) -> float:
        return sum(profiles[b].records for b in members) / len(members)

    # Signatures are unique per group, so (mean, signature) is a total,
    # deterministic order.
    ordered.sort(key=lambda m: (_mean_records(m), profiles[m[0]].signature))
    total = len(profiles)
    merged: List[List[int]] = []
    current: List[int] = []
    consumed = 0
    for group in ordered:
        current.extend(group)
        consumed += len(group)
        if len(merged) < cap - 1 and consumed >= total * (len(merged) + 1) / cap:
            merged.append(sorted(current))
            current = []
    if current:
        merged.append(sorted(current))
    return merged


def _select_blocks(
    strata: List[List[int]], rate: float, rng
) -> List[int]:
    """Proportional allocation with at least one block per stratum."""
    selected: List[int] = []
    for members in strata:
        count = max(1, round(rate * len(members)))
        count = min(count, len(members))
        selected.extend(rng.sample(members, count))
    return sorted(selected)


def subsample_launch(
    launch: LaunchTrace,
    profiles: Dict[int, BlockProfile],
    spec: SamplingSpec,
    launch_index: int,
) -> Tuple[LaunchTrace, LaunchPlan]:
    """Derive the sampled launch plus its plan for one recorded launch."""
    strata = build_strata(profiles, spec.rate)
    # The 0 is the one value the retired per-config sampling seed took:
    # kept in the derivation so every configuration selects the subset it
    # always did.
    rng = derive_rng("blocks", spec.rate, 0, launch.kernel_fp, launch_index)
    selected = _select_blocks(strata, spec.rate, rng)
    per_block = _streams_by_block(launch)
    warps: Dict[Tuple[int, int], WarpStream] = {}
    for new_id, original in enumerate(selected):
        for warp_id, stream in per_block[original].items():
            warps[(new_id, warp_id)] = stream
    derived = LaunchTrace(
        kernel=launch.kernel,
        grid_dim=len(selected),
        block_dim=launch.block_dim,
        kernel_fp=launch.kernel_fp,
        warps=warps,
    )
    plan = LaunchPlan(
        rate=spec.rate,
        selected=selected,
        strata=strata,
        profiles=profiles,
    )
    return derived, plan


# ----------------------------------------------------------------------
# Whole-program derivation
# ----------------------------------------------------------------------
def subsample_program(
    program: TraceProgram, sampling: str
) -> Tuple[TraceProgram, List[LaunchPlan]]:
    """Derive the sampled program plus one :class:`LaunchPlan` per launch.

    The derived program keeps the original functional fingerprint (it was
    recorded under the same functional config), so the ordinary replay
    validation accepts it; its ``meta`` records the provenance.
    """
    parsed = parse_sampling_spec(sampling)
    if not parsed.enabled:
        raise ValueError("subsample_program called with sampling='off'")
    profiles = profile_program(program)
    launches: List[LaunchTrace] = []
    plans: List[LaunchPlan] = []
    for index, launch in enumerate(program.launches):
        derived, plan = subsample_launch(launch, profiles[index], parsed, index)
        launches.append(derived)
        plans.append(plan)
    meta = dict(program.meta)
    meta.update({
        "sampled_from": program.trace_id,
        "sampling": str(parsed),
    })
    sampled = TraceProgram(
        functional_fingerprint=program.functional_fingerprint,
        workload=program.workload,
        scale=program.scale,
        warp_size=program.warp_size,
        line_size=program.line_size,
        meta=meta,
        launches=launches,
    )
    return sampled, plans
