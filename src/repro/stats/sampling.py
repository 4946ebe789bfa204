"""Estimators for sampled trace replay: extrapolation + error bars.

The sampling frontend (:mod:`repro.sampling`) replays a subset of a
recorded trace through the unchanged timing model; this module turns the
subset's measured :class:`~repro.stats.counters.RunResult` plus the
sampler's :class:`~repro.sampling.plan.LaunchPlan` into a
:class:`SampledRunResult` — a drop-in result whose headline fields are
*estimates of the exact run* with per-metric 95% confidence intervals.

Estimator structure (see ``docs/sampling.md`` for the derivation):

* **Instruction totals are exact.**  Warp/thread instruction counts are
  functional properties of the full trace, computed by a linear scan —
  no estimation, zero-width intervals.
* **Cycles use a stratified ratio estimator.**  Each replayed block
  contributes its measured serial execution time ``e_b`` (commit −
  dispatch), expanded by its stratum weight ``N_h/n_h``.  The
  stratified total ``S`` estimates the whole grid's serial block time;
  multiplying by the *observed* parallelism factor ``kappa = C_s / sum
  e_b`` (sampled wall cycles over sampled serial time) converts it to
  device cycles.  At rate 1 the estimator collapses to the exact count.
* **Intensive metrics ride the exact totals.**  IPC is (exact thread
  instructions)/(estimated cycles); cache and DRAM counters scale by the
  exact-to-sampled thread-instruction ratio, which makes MPKI and hit
  rates equal to their sampled values — intensive quantities that cluster
  sampling estimates directly.
* **Error bars: delete-one-block jackknife over strata, folded with a
  fixed envelope.**  The jackknife measures within-stratum spread of the
  expansion estimator; strata with a single sampled block contribute
  nothing (counted as ``degenerate_strata``).  The final half-width is
  ``max(1.96*SE, DEFAULT_ENVELOPE_REL * |estimate|)`` — metrics with no
  per-block decomposition (MPKI, DRAM) carry the envelope alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..memory.cache import CacheStats
from .counters import BlockSummary, RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sampling.plan import LaunchPlan

#: Normal 95% quantile used for all intervals (the jackknife SE is
#: approximately normal for the block counts we sample).
Z95 = 1.96

#: Relative half-width every sampled interval is at least.  Deliberately
#: wide — see docs/sampling.md ("when not to trust sampled numbers").
DEFAULT_ENVELOPE_REL = 0.10


@dataclass
class MetricEstimate:
    """One extrapolated metric with its 95% confidence interval."""

    value: float
    lo: float
    hi: float
    se: float = 0.0
    #: "exact", "jackknife+envelope", or "envelope".
    method: str = "envelope"


@dataclass
class SamplingInfo:
    """Provenance and coverage of one sampled run."""

    spec: str
    # ``mode``, ``seed`` and the envelope pair are constants now ("blocks",
    # 0, the fixed envelope, "default"), kept so a stored result keeps its
    # payload shape; an older payload may carry a per-metric envelope
    # mapping and another source, and loads as stored.
    mode: str
    rate: float
    seed: int
    total_blocks: int
    sampled_blocks: int
    strata: int
    degenerate_strata: int
    records_total: int
    records_replayed: int
    envelope_rel: object = DEFAULT_ENVELOPE_REL
    envelope_source: str = "default"

    @property
    def replay_fraction(self) -> float:
        """Fraction of dynamic records actually replayed (cost proxy)."""
        if not self.records_total:
            return 1.0
        return self.records_replayed / self.records_total


@dataclass
class SampledRunResult(RunResult):
    """A :class:`RunResult` whose headline numbers are extrapolations.

    Stands in for the exact result everywhere (figures, tables, caches):
    ``cycles``/``l1_stats``/... hold the point estimates and ``blocks``
    the replayed subset's summaries with their *original* block ids.
    ``ci`` adds the per-metric intervals and ``info`` the sampling frame.
    """

    ci: Dict[str, MetricEstimate] = field(default_factory=dict)
    info: Optional[SamplingInfo] = None

    def to_dict(self) -> Dict:
        data = super().to_dict()
        data["sampled"] = {
            "info": dataclasses.asdict(self.info) if self.info else None,
            "ci": {
                name: dataclasses.asdict(est) for name, est in self.ci.items()
            },
        }
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "SampledRunResult":
        result = super().from_dict(data)
        sampled = data.get("sampled") or {}
        result.ci = {name: MetricEstimate(**est)
                     for name, est in sampled.get("ci", {}).items()}
        info_data = sampled.get("info")
        result.info = SamplingInfo(**info_data) if info_data else None
        return result


# ----------------------------------------------------------------------
# Stratified totals + jackknife
# ----------------------------------------------------------------------
def _weighted_total(
    contribs: List[Tuple[int, float]], sizes: List[Tuple[int, int]]
) -> float:
    """Stratified expansion total: sum_h (N_h/n_h) * sum_{j in h} v_j."""
    per_stratum: Dict[int, float] = {}
    for stratum, value in contribs:
        per_stratum[stratum] = per_stratum.get(stratum, 0.0) + value
    total = 0.0
    for stratum, summed in per_stratum.items():
        population, sampled = sizes[stratum]
        total += (population / sampled) * summed
    return total


def _jackknife_se(
    contribs: List[Tuple[int, float]],
    sizes: List[Tuple[int, int]],
    transform,
) -> Tuple[float, int]:
    """Delete-one-block jackknife SE of ``transform(weighted total)``.

    Returns ``(se, degenerate_strata)`` where degenerate strata (a single
    sampled block) cannot contribute variance and are only counted.
    """
    base_sums: Dict[int, float] = {}
    members: Dict[int, List[float]] = {}
    for stratum, value in contribs:
        base_sums[stratum] = base_sums.get(stratum, 0.0) + value
        members.setdefault(stratum, []).append(value)
    variance = 0.0
    degenerate = 0
    for stratum, values in members.items():
        population, sampled = sizes[stratum]
        if sampled < 2:
            degenerate += 1
            continue
        # Replicate totals: stratum `stratum` reweighted to n_h - 1
        # blocks, every other stratum unchanged.
        others = sum(
            (sizes[s][0] / sizes[s][1]) * base_sums[s]
            for s in base_sums
            if s != stratum
        )
        replicates = []
        for value in values:
            reduced = (population / (sampled - 1)) * (
                base_sums[stratum] - value
            )
            replicates.append(transform(others + reduced))
        mean = sum(replicates) / len(replicates)
        variance += ((sampled - 1) / sampled) * sum(
            (rep - mean) ** 2 for rep in replicates
        )
    return math.sqrt(variance), degenerate


def _scale_cache_stats(stats: CacheStats, factor: float) -> CacheStats:
    scaled = CacheStats()
    for field_info in dataclasses.fields(CacheStats):
        name = field_info.name
        setattr(scaled, name, round(getattr(stats, name) * factor))
    return scaled


def _estimate(value: float, se: float, method: str) -> MetricEstimate:
    half = max(Z95 * se, DEFAULT_ENVELOPE_REL * abs(value))
    return MetricEstimate(
        value=value, lo=value - half, hi=value + half, se=se, method=method
    )


# ----------------------------------------------------------------------
# The estimator
# ----------------------------------------------------------------------
def estimate_sampled_result(
    replay_result: RunResult, plan: "LaunchPlan", spec: str
) -> SampledRunResult:
    """Extrapolate one sampled replay to a full-run estimate with CIs.

    ``replay_result`` is the (exact) timing result of replaying the
    derived sub-program; ``plan`` is what the sampler kept.  Block ids in
    the replayed result are the dense renumbered ids — they are mapped
    back to the original grid here, so downstream block-level analyses
    see original identities.
    """
    # Per-replayed-block measurements, keyed by original block id.
    selected_set = set(plan.selected)
    sizes = [
        (len(members), len([b for b in members if b in selected_set]))
        for members in plan.strata
    ]
    stratum_index = {
        block: index
        for index, members in enumerate(plan.strata)
        for block in members
    }
    blocks: List[BlockSummary] = []
    exec_contribs: List[Tuple[int, float]] = []  # e_b
    stall_contribs: Dict[str, List[Tuple[int, float]]] = {
        "total_stall_cycles": [],
        "mem_stall_cycles": [],
        "sched_stall_cycles": [],
    }
    sampled_exec = 0.0
    for block in replay_result.blocks:
        original = plan.original_id(block.block_id)
        summary = dataclasses.replace(block, block_id=original)
        blocks.append(summary)
        stratum = stratum_index[original]
        exec_time = summary.execution_time or 0.0
        sampled_exec += exec_time
        exec_contribs.append((stratum, exec_time))
        for name in stall_contribs:
            attr_sum = sum(getattr(w, name) for w in summary.warps)
            stall_contribs[name].append((stratum, attr_sum))
    blocks.sort(key=lambda b: b.block_id)

    sampled_cycles = float(replay_result.cycles)
    serial_total = _weighted_total(exec_contribs, sizes)
    kappa = sampled_cycles / sampled_exec if sampled_exec else 1.0
    cycles_hat = kappa * serial_total if serial_total else sampled_cycles

    threads_total = float(plan.total_threads)
    records_total = float(plan.total_records)
    threads_sampled = float(replay_result.thread_instructions) or 1.0
    scale_threads = threads_total / threads_sampled

    ci: Dict[str, MetricEstimate] = {}
    se_cycles, degenerate = _jackknife_se(
        exec_contribs, sizes, lambda s: kappa * s
    )
    ci["cycles"] = _estimate(cycles_hat, se_cycles, "jackknife+envelope")
    ci["ipc"] = _estimate(
        threads_total / cycles_hat if cycles_hat else 0.0,
        _jackknife_se(
            exec_contribs,
            sizes,
            lambda s: threads_total / (kappa * s) if s else 0.0,
        )[0],
        "jackknife+envelope",
    )
    for name, contribs in stall_contribs.items():
        total = _weighted_total(contribs, sizes)
        se, _ = _jackknife_se(contribs, sizes, lambda s: s)
        ci[name] = _estimate(total, se, "jackknife+envelope")

    l1_hat = _scale_cache_stats(replay_result.l1_stats, scale_threads)
    l2_hat = _scale_cache_stats(replay_result.l2_stats, scale_threads)
    dram_hat = round(replay_result.dram_accesses * scale_threads)
    mpki_hat = 1000.0 * l1_hat.misses / threads_total if threads_total else 0.0
    ci["l1_misses"] = _estimate(float(l1_hat.misses), 0.0, "envelope")
    ci["l2_misses"] = _estimate(float(l2_hat.misses), 0.0, "envelope")
    ci["dram_accesses"] = _estimate(float(dram_hat), 0.0, "envelope")
    ci["l1_mpki"] = _estimate(mpki_hat, 0.0, "envelope")
    ci["warp_instructions"] = MetricEstimate(
        value=records_total, lo=records_total, hi=records_total,
        method="exact",
    )
    ci["thread_instructions"] = MetricEstimate(
        value=threads_total, lo=threads_total, hi=threads_total,
        method="exact",
    )

    info = SamplingInfo(
        spec=spec,
        mode="blocks",
        rate=plan.rate,
        seed=0,
        total_blocks=plan.total_blocks,
        sampled_blocks=len(plan.selected),
        strata=len(plan.strata),
        degenerate_strata=degenerate,
        records_total=plan.total_records,
        records_replayed=plan.replayed_records,
    )
    return SampledRunResult(
        kernel_name=replay_result.kernel_name,
        scheme=replay_result.scheme,
        cycles=cycles_hat,
        thread_instructions=plan.total_threads,
        warp_instructions=plan.total_records,
        l1_stats=l1_hat,
        l2_stats=l2_hat,
        blocks=blocks,
        dram_accesses=dram_hat,
        warp_size=replay_result.warp_size,
        frontend="trace",
        trace_id=replay_result.trace_id,
        cycles_skipped=replay_result.cycles_skipped,
        skip_jumps=replay_result.skip_jumps,
        sampling=spec,
        ci=ci,
        info=info,
    )
