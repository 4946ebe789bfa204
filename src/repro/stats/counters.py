"""Run-level results: IPC, MPKI, and aggregated cache statistics."""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..memory.cache import CacheStats


def replace_stats(stats: CacheStats) -> CacheStats:
    """Shallow copy of a :class:`CacheStats` (snapshot for launch deltas)."""
    return dataclasses.replace(stats)


def subtract_stats(now: CacheStats, before: CacheStats) -> CacheStats:
    """Field-wise ``now - before`` of two cumulative counters."""
    delta = CacheStats()
    for field_info in dataclasses.fields(CacheStats):
        name = field_info.name
        setattr(delta, name, getattr(now, name) - getattr(before, name))
    return delta


def merge_cache_stats(parts: List[CacheStats]) -> CacheStats:
    """Sum per-SM cache counters into one aggregate."""
    total = CacheStats()
    for field_info in dataclasses.fields(CacheStats):
        name = field_info.name
        setattr(total, name, sum(getattr(part, name) for part in parts))
    return total


@dataclass
class WarpSummary:
    """Picklable / JSON-serializable snapshot of one committed warp.

    Carries every per-warp field the analysis layers (disparity, figure
    scripts, the CAWS oracle) read from live :class:`~repro.simt.warp.Warp`
    objects, so cached or cross-process results duck-type cleanly.
    """

    warp_id_in_block: int
    execution_time: float
    issued_instructions: int
    thread_instructions: int
    divergent_branches: int
    total_stall_cycles: float
    mem_stall_cycles: float
    sched_stall_cycles: float
    criticality: float

    @classmethod
    def from_warp(cls, warp) -> "WarpSummary":
        return cls(
            warp_id_in_block=warp.warp_id_in_block,
            execution_time=warp.execution_time,
            issued_instructions=warp.issued_instructions,
            thread_instructions=warp.thread_instructions,
            divergent_branches=warp.divergent_branches,
            total_stall_cycles=warp.total_stall_cycles,
            mem_stall_cycles=warp.mem_stall_cycles,
            sched_stall_cycles=warp.sched_stall_cycles,
            criticality=warp.criticality,
        )


@dataclass
class BlockSummary:
    """Serializable snapshot of one committed thread block."""

    block_id: int
    num_warps: int
    dispatch_cycle: float
    commit_cycle: Optional[float]
    warps: List[WarpSummary] = field(default_factory=list)

    @classmethod
    def from_block(cls, block) -> "BlockSummary":
        return cls(
            block_id=block.block_id,
            num_warps=block.num_warps,
            dispatch_cycle=block.dispatch_cycle,
            commit_cycle=block.commit_cycle,
            warps=[WarpSummary.from_warp(w) for w in block.warps],
        )

    @property
    def execution_time(self) -> Optional[float]:
        if self.commit_cycle is None:
            return None
        return self.commit_cycle - self.dispatch_cycle

    def warp_execution_times(self) -> List[float]:
        return [w.execution_time for w in self.warps]


def _jsonable(value) -> bool:
    """True for plain scalars that survive a JSON round trip unchanged."""
    return isinstance(value, (bool, int, float, str)) or value is None


@dataclass
class RunResult:
    """Everything a launch produced, ready for the experiment harness.

    ``blocks`` keeps the committed :class:`~repro.simt.block.ThreadBlock`
    objects (with their warps) so disparity and criticality analyses can be
    run after the fact; ``extra`` carries observer outputs such as reuse
    profiles or the Fig 12 priority trace.
    """

    kernel_name: str
    scheme: str
    cycles: float
    thread_instructions: int
    warp_instructions: int
    l1_stats: CacheStats
    l2_stats: CacheStats
    blocks: List = field(default_factory=list)
    dram_accesses: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    #: Lanes per warp, used by :attr:`simd_efficiency` (set at collection).
    warp_size: int = 32

    #: Provenance — the path the GPU took: ``"trace"`` (it replayed a
    #: stored program, as every runner cell does) or ``"execute"`` (a GPU
    #: handed no trace recorded each launch in place; bit-identical by
    #: contract, see docs/trace_driven.md).  Kept so stored result
    #: entries of either value load.
    frontend: str = "execute"
    #: Trace provenance: the content id of the trace this run replayed, or
    #: ``None`` for an execution (which touches no trace).
    trace_id: Optional[str] = None
    #: Provenance of a cold cell: True when the run that produced this
    #: result also made the trace it replayed (the functional pass of
    #: :mod:`repro.trace.functional`), with what the pass and the replay
    #: each cost on the host and the pass's batched-step and warp counts.
    #: Host-side facts, so none of them takes part in equality.
    recorded: bool = field(default=False, compare=False)
    record_s: float = field(default=0.0, compare=False)
    replay_s: float = field(default=0.0, compare=False)
    record_steps: int = field(default=0, compare=False)
    record_warps: int = field(default=0, compare=False)
    #: Which cell this process simulated to make the result
    #: (:func:`repro.experiments.runner.cells_simulated`); 0 when it was
    #: read from the disk cache.  Host bookkeeping, never stored.
    cell_serial: int = field(default=0, compare=False)

    #: Clock-advance telemetry of the device loop: ``skip_jumps`` is the
    #: number of clock advances larger than one cycle, ``cycles_skipped``
    #: the total cycles those advances never visited.  Diagnostic only —
    #: excluded from parity comparisons.
    cycles_skipped: float = 0.0
    skip_jumps: int = 0
    #: Provenance: the trace-sampling spec this result was produced under
    #: (``"off"`` for exact runs).  Unlike the provenance knobs above,
    #: sampling *changes the reported numbers* — sampled results are
    #: :class:`~repro.stats.sampling.SampledRunResult` estimates with
    #: confidence intervals — so the spec is fingerprinted (see
    #: :meth:`repro.config.GPUConfig.fingerprint`) and never aliases an
    #: exact entry.
    sampling: str = "off"
    #: Provenance: True when the functional outputs behind this result were
    #: checked against the workload's reference, by the run itself or by
    #: the functional pass that made the trace it replayed (set by
    #: :func:`repro.experiments.runner.run_scheme`, whose ``check=True``
    #: callers never get a memoised or stored result without it).  A
    #: stored payload with no ``"verified"`` key predates the field and
    #: loads as unverified.
    verified: bool = False

    @property
    def ipc(self) -> float:
        """Thread-level instructions per cycle (the paper's IPC metric)."""
        return self.thread_instructions / self.cycles if self.cycles else 0.0

    @property
    def simd_efficiency(self) -> float:
        """Mean fraction of lanes active per issued warp instruction.

        1.0 means no divergence / no partial warps; branch-divergent
        workloads (Section 2.2.2) sit well below it.
        """
        if not self.warp_instructions:
            return 0.0
        return self.thread_instructions / (self.warp_instructions * self.warp_size)

    @property
    def l1_mpki(self) -> float:
        """L1D misses per kilo (thread) instruction."""
        if not self.thread_instructions:
            return 0.0
        return 1000.0 * self.l1_stats.misses / self.thread_instructions

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_stats.hit_rate

    @property
    def critical_hit_rate(self) -> float:
        return self.l1_stats.critical_hit_rate

    def speedup_over(self, baseline: "RunResult") -> float:
        """IPC speedup of this run relative to ``baseline``."""
        if self.ipc == 0 or baseline.ipc == 0:
            return 0.0
        return self.ipc / baseline.ipc

    def summary(self) -> str:
        return (
            f"{self.kernel_name:<16} {self.scheme:<14} cycles={self.cycles:>10.0f} "
            f"IPC={self.ipc:7.3f} L1 hit={self.l1_hit_rate:6.2%} "
            f"MPKI={self.l1_mpki:7.2f}"
        )

    # ------------------------------------------------------------------
    # Serialization (persistent result cache, cross-process sweeps)
    # ------------------------------------------------------------------
    def block_summaries(self) -> List[BlockSummary]:
        """``blocks`` as :class:`BlockSummary` snapshots: everything the
        analyses read, none of the launch's ``ThreadBlock`` / ``Warp``
        graph."""
        return [
            b if isinstance(b, BlockSummary) else BlockSummary.from_block(b)
            for b in self.blocks
        ]

    def to_dict(self) -> Dict:
        """Plain-data form of this result (JSON- and pickle-friendly).

        Live :class:`~repro.simt.block.ThreadBlock` objects are reduced to
        :class:`BlockSummary`; ``extra`` entries that are not plain scalars
        (e.g. profiler objects) are dropped.
        """
        blocks = self.block_summaries()
        return {
            "kernel_name": self.kernel_name,
            "scheme": self.scheme,
            "cycles": self.cycles,
            "thread_instructions": self.thread_instructions,
            "warp_instructions": self.warp_instructions,
            "l1_stats": dataclasses.asdict(self.l1_stats),
            "l2_stats": dataclasses.asdict(self.l2_stats),
            "dram_accesses": self.dram_accesses,
            "warp_size": self.warp_size,
            "frontend": self.frontend,
            "trace_id": self.trace_id,
            "recorded": self.recorded,
            "record_s": self.record_s,
            "replay_s": self.replay_s,
            "record_steps": self.record_steps,
            "record_warps": self.record_warps,
            "cycles_skipped": self.cycles_skipped,
            "skip_jumps": self.skip_jumps,
            "sampling": self.sampling,
            "verified": self.verified,
            "blocks": [dataclasses.asdict(b) for b in blocks],
            "extra": {k: v for k, v in self.extra.items() if _jsonable(v)},
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunResult":
        """Rebuild a result whose blocks are :class:`BlockSummary` objects."""
        blocks = [
            BlockSummary(
                block_id=b["block_id"],
                num_warps=b["num_warps"],
                dispatch_cycle=b["dispatch_cycle"],
                commit_cycle=b["commit_cycle"],
                warps=[WarpSummary(**w) for w in b["warps"]],
            )
            for b in data["blocks"]
        ]
        return cls(
            kernel_name=data["kernel_name"],
            scheme=data["scheme"],
            cycles=data["cycles"],
            thread_instructions=data["thread_instructions"],
            warp_instructions=data["warp_instructions"],
            l1_stats=_load_cache_stats(data["l1_stats"]),
            l2_stats=_load_cache_stats(data["l2_stats"]),
            blocks=blocks,
            dram_accesses=data["dram_accesses"],
            extra=dict(data.get("extra", {})),
            warp_size=data.get("warp_size", 32),
            frontend=data.get("frontend", "execute"),
            trace_id=data.get("trace_id"),
            recorded=data.get("recorded", False),
            record_s=data.get("record_s", 0.0),
            replay_s=data.get("replay_s", 0.0),
            record_steps=data.get("record_steps", 0),
            record_warps=data.get("record_warps", 0),
            cycles_skipped=data.get("cycles_skipped", 0.0),
            skip_jumps=data.get("skip_jumps", 0),
            sampling=data.get("sampling", "off"),
            verified=data.get("verified", False),
        )


def _load_cache_stats(data: Dict) -> CacheStats:
    """A stored :class:`CacheStats` dict, minus ``bypasses``: the retired
    L1-bypass counter, which payloads stored before its removal carry."""
    fields = dict(data)
    fields.pop("bypasses", None)
    return CacheStats(**fields)


#: Headline counts :func:`result_from_dict` checks are numbers.
_NUMERIC_KEYS = ("cycles", "warp_instructions", "thread_instructions",
                 "dram_accesses")


def result_from_dict(data: Dict) -> "RunResult":
    """Deserialize a result dict to its concrete type.

    Sampled results (produced under ``config.sampling != "off"``) carry a
    ``"sampled"`` envelope with their confidence intervals and sampling
    frame; they round-trip as
    :class:`~repro.stats.sampling.SampledRunResult` so cache hits and
    cross-process sweep results keep their error bars.  Everything else is
    a plain :class:`RunResult`.

    A headline count that is not a number (or is a boolean) raises
    :class:`TypeError`: a stored entry that parses as JSON but carries,
    say, ``"cycles": "x"`` must be refused, never served.
    """
    for key in _NUMERIC_KEYS:
        value = data[key]
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"result field {key!r} must be a number, "
                            f"got {value!r}")
    if "sampled" in data:
        # Local import: stats.sampling builds on this module.
        from .sampling import SampledRunResult

        return SampledRunResult.from_dict(data)
    return RunResult.from_dict(data)
