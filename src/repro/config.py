"""Simulator configuration objects.

The reference parameters come from Table 1 of the CAWA paper (NVIDIA Fermi
GTX480 as configured in GPGPU-sim 3.2.0).  :meth:`GPUConfig.fermi_gtx480`
reproduces that table verbatim; :meth:`GPUConfig.default_sim` is a scaled-down
configuration with identical structural ratios that lets the pure-Python
simulator sweep every experiment in minutes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import ClassVar, Dict, FrozenSet, Optional

from .errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy knobs for one cache.

    Attributes:
        sets: number of cache sets (power of two).
        ways: associativity.
        line_size: block size in bytes (power of two).
        hit_latency: cycles from access to data on a hit.
        replacement: replacement policy name understood by
            :func:`repro.memory.replacement.make_policy`
            (``"lru"``, ``"srrip"``, ``"ship"``).
        critical_ways: number of ways reserved for the critical partition
            when the cache runs under CACP (0 disables partitioning).
        mshr_entries: number of outstanding missed lines tracked.
    """

    sets: int
    ways: int
    line_size: int = 128
    hit_latency: int = 2
    replacement: str = "lru"
    critical_ways: int = 0
    mshr_entries: int = 32

    def __post_init__(self) -> None:
        # Set count need not be a power of two (indexing is modulo); the
        # unified L2's tag array is sets x banks, e.g. 64 x 6 = 384.
        if self.sets <= 0:
            raise ConfigError(f"cache sets must be positive, got {self.sets}")
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ConfigError(
                f"cache line size must be a power of two, got {self.line_size}"
            )
        if self.ways <= 0:
            raise ConfigError(f"cache ways must be positive, got {self.ways}")
        if not 0 <= self.critical_ways <= self.ways:
            raise ConfigError(
                f"critical_ways ({self.critical_ways}) must be within "
                f"[0, ways={self.ways}]"
            )
        if self.mshr_entries <= 0:
            raise ConfigError("mshr_entries must be positive")

    @property
    def size_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.sets * self.ways * self.line_size

    def set_index(self, address: int) -> int:
        """Map a byte address to its set index."""
        return (address // self.line_size) % self.sets

    def line_address(self, address: int) -> int:
        """Align a byte address down to its cache-line address."""
        return address - (address % self.line_size)


@dataclass(frozen=True)
class GPUConfig:
    """Whole-GPU configuration (Table 1 of the paper).

    Attributes mirror the rows of Table 1, plus functional-unit latencies the
    paper inherits from GPGPU-sim defaults.
    """

    num_sms: int = 15
    max_warps_per_sm: int = 48
    max_blocks_per_sm: int = 8
    num_schedulers_per_sm: int = 2
    registers_per_sm: int = 32768
    shared_mem_per_sm: int = 48 * 1024
    warp_size: int = 32

    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(sets=8, ways=16, line_size=128)
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(sets=4, ways=4, line_size=128)
    )
    # Table 1: 768KB unified L2, 64 sets x 16 ways x 6 banks.  The tag
    # array is modeled as one cache of 64*6 = 384 sets; the banks appear as
    # independent service queues in :class:`repro.memory.l2.BankedL2`.
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(sets=384, ways=16, line_size=128)
    )
    l2_banks: int = 6
    l2_latency: int = 120
    dram_latency: int = 220
    dram_service_interval: int = 4
    l2_service_interval: int = 2

    alu_latency: int = 4
    sfu_latency: int = 16
    scheduler_name: str = "lrr"
    l1d_policy: str = "lru"
    use_cacp: bool = False
    #: CACP partition mode: "priority" (logical, default), "static" (the
    #: paper's strict 8-of-16 way split), or "dynamic" (UCP-style retuned
    #: split).  See :class:`repro.core.cacp.CACPPolicy`.
    cacp_mode: str = "priority"
    #: Extension: bypass L1 allocation for non-critical no-reuse fills.
    cacp_bypass: bool = False
    #: Extension: MSHR entries reserved for critical warps.  Non-critical
    #: warps may not start a new miss unless more than this many entries
    #: are free, guaranteeing critical warps memory-level parallelism.
    critical_mshr_reserve: int = 0
    use_cpl: bool = True
    cpl_update_period: int = 64
    #: Observability event recording (:mod:`repro.obs`): ``"off"``
    #: (default, every probe reduced to one pointer test), ``"on"`` (ring
    #: buffer with the default capacity), ``"ring:N"`` (drop-oldest ring of
    #: N events) or ``"spill:N"`` (unbounded recording, zlib-spilled in
    #: N-event chunks under ``.repro_cache/events/spill/``).  Collectors
    #: never perturb timing (``tests/test_obs_parity.py``), so the spec
    #: is excluded from :meth:`fingerprint`.
    #: See ``docs/observability.md``.
    events: str = "off"
    #: Statistical sampling of the stored trace (:mod:`repro.sampling`):
    #: ``"off"`` (default, exact simulation), ``"blocks:P"`` (seeded
    #: stratified cluster sampling of thread blocks at rate ``P``), or
    #: ``"intervals:P"`` (barrier-aligned truncation of every warp stream
    #: to its leading fraction ``P``).  Sampled runs replay only the
    #: selected subset through the unchanged timing model and extrapolate
    #: the rest (:class:`repro.stats.sampling.SampledRunResult`), so —
    #: unlike ``events`` — this one **changes the reported numbers** and is
    #: deliberately *included* in :meth:`fingerprint`: sampled and exact
    #: results never share a result-cache entry or a serve coalescing
    #: group.  Selection is deterministic given the config: the sampler's
    #: RNG is seeded from ``(sampling, sampling_seed, trace identity)``.
    #: See ``docs/sampling.md``.
    sampling: str = "off"
    #: Extra entropy for the sampling subset selection.  Fingerprinted,
    #: like ``sampling`` itself: two seeds select different subsets and
    #: therefore produce (slightly) different estimates.
    sampling_seed: int = 0

    #: Knobs *excluded* from :meth:`fingerprint`.  Every entry is
    #: bit-identical by contract — switching it changes how fast a result
    #: is produced, never what the result is — so configurations that
    #: differ only here share result-cache entries.  The set is validated
    #: against the dataclass field names at import time (a typo'd or
    #: renamed knob fails immediately, not by silently hashing everything)
    #: and read as ground truth by the FPR001 sanitize rule
    #: (:mod:`repro.sanitize`): any timing-path read of one of these
    #: fields must carry a waiver explaining why the read cannot perturb
    #: results.  See docs/static_analysis.md ("Sanitizing the simulator").
    FINGERPRINT_EXCLUDED: ClassVar[FrozenSet[str]] = frozenset({"events"})

    #: The *included* set for :meth:`functional_fingerprint`: payload key
    #: -> dotted field path.  Only parameters that change the recorded
    #: per-warp instruction streams belong here (warp width shapes active
    #: masks; the L1D line size defines the coalescing granularity baked
    #: into recorded line addresses).  Validated against the dataclass
    #: field names at import time, like :data:`FINGERPRINT_EXCLUDED`.
    FUNCTIONAL_FINGERPRINT_FIELDS: ClassVar[Dict[str, str]] = {
        "warp_size": "warp_size",
        "l1_line_size": "l1d.line_size",
    }

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ConfigError("num_sms must be positive")
        if self.warp_size <= 0 or self.warp_size & (self.warp_size - 1):
            raise ConfigError("warp_size must be a power of two")
        if self.warp_size > 64:
            raise ConfigError(
                f"warp_size={self.warp_size} is not supported: every launch "
                "is timed from a recorded stream, whose lane masks are 64-bit"
            )
        if self.max_warps_per_sm <= 0:
            raise ConfigError("max_warps_per_sm must be positive")
        if self.max_blocks_per_sm <= 0:
            raise ConfigError("max_blocks_per_sm must be positive")
        if self.num_schedulers_per_sm <= 0:
            raise ConfigError("num_schedulers_per_sm must be positive")
        if self.l2_banks <= 0:
            raise ConfigError("l2_banks must be positive")
        # Validate the scheduler name eagerly against the registry (local
        # import: repro.scheduling never imports config, so no cycle) —
        # a typo fails when the config is built, not at device build time,
        # and the error lists every registered name.
        from .scheduling.registry import SCHEDULERS

        if self.scheduler_name not in SCHEDULERS:
            raise ConfigError(
                f"unknown scheduler {self.scheduler_name!r}; expected one "
                f"of {sorted(SCHEDULERS)}"
            )
        # Validate the events spec through the one shared parser (local
        # import: repro.obs.bus is a leaf, but keeping it out of module
        # scope avoids ordering constraints during package init).
        from .obs.bus import parse_spec

        parse_spec(self.events)
        # Same pattern for the sampling spec (repro.sampling.spec is a
        # leaf; the heavy sampling machinery never loads from here).
        from .sampling.spec import parse_sampling_spec

        parse_sampling_spec(self.sampling)

    @classmethod
    def fermi_gtx480(cls, **overrides) -> "GPUConfig":
        """The exact Table 1 configuration (16KB L1D, 8 sets x 16 ways)."""
        return cls(**overrides)

    @classmethod
    def default_sim(cls, **overrides) -> "GPUConfig":
        """Scaled configuration used for the reproduction experiments.

        Two SMs with 16 warps each keep Python run times tractable while
        preserving Table 1's structural ratios: the L1D remains 8 sets x
        16 ways x 128B (16KB) so the per-warp cache pressure matches the
        paper, and the L2:DRAM latency gap (120:220) is unchanged.
        """
        params = dict(
            num_sms=2,
            max_warps_per_sm=16,
            max_blocks_per_sm=4,
            num_schedulers_per_sm=2,
            registers_per_sm=32768,
            # L1D geometry matches Table 1 (16KB, 8 sets x 16 ways x 128B);
            # the MSHR file scales with the warp count (8 entries for 16
            # warps vs. the GTX480's 32 for 48) so memory-issue slots stay
            # a contended resource, as on the real machine.
            l1d=CacheConfig(sets=8, ways=16, line_size=128, mshr_entries=8),
            l2=CacheConfig(sets=32, ways=16, line_size=128),
            l2_banks=2,
        )
        params.update(overrides)
        return cls(**params)

    def with_scheduler(self, name: str) -> "GPUConfig":
        """Return a copy using warp scheduler ``name``.

        Validates eagerly: ``replace`` re-runs ``__post_init__``, which
        rejects names missing from the scheduling registry with the full
        list of registered schedulers.
        """
        return replace(self, scheduler_name=name)

    def with_cacp(self, enabled: bool = True, critical_ways: Optional[int] = None) -> "GPUConfig":
        """Return a copy with CACP cache prioritization toggled.

        When enabling, the L1D is partitioned with ``critical_ways`` ways
        (default: half of the ways, the paper's sensitivity-analysis optimum).
        """
        if enabled:
            ways = self.l1d.ways // 2 if critical_ways is None else critical_ways
            l1d = replace(self.l1d, critical_ways=ways)
        else:
            l1d = replace(self.l1d, critical_ways=0)
        return replace(self, use_cacp=enabled, l1d=l1d)

    def with_l1d_policy(self, policy: str) -> "GPUConfig":
        """Return a copy using L1D replacement policy ``policy``."""
        return replace(self, l1d_policy=policy)

    def with_frontend(self, frontend: str) -> "GPUConfig":
        """Shim for the removed ``frontend`` knob: ``"trace"``, the one
        path left (load the stored trace, or record and store it, then
        replay), returns ``self``; any other value raises.

        Kept only for the frozen benchmark ledger's two calls
        (``benchmarks/ledger/workloads.py:400,447``); it goes with ROADMAP
        item 1's ledger re-baseline, which drops them.
        """
        if frontend != "trace":
            raise ConfigError(
                f"frontend={frontend!r}: the frontend knob is gone; every "
                "cell replays the stored trace (recorded first on a miss)"
            )
        return self

    def with_events(self, events: str) -> "GPUConfig":
        """Return a copy with observability event recording spec ``events``."""
        return replace(self, events=events)

    def with_sampling(self, sampling: str, seed: Optional[int] = None) -> "GPUConfig":
        """Return a copy with trace-sampling spec ``sampling``; ``seed``
        optionally re-seeds the subset selection (see :attr:`sampling_seed`).
        """
        return replace(
            self,
            sampling=sampling,
            sampling_seed=self.sampling_seed if seed is None else seed,
        )

    def fingerprint(self) -> str:
        """Stable short hash of every timing-relevant parameter.

        Keys the persistent on-disk result cache: any change to the
        configuration (cache geometry, latencies, scheduler, ...) yields a
        different fingerprint and therefore a cache miss.  The knob in
        :data:`FINGERPRINT_EXCLUDED` (events) is deliberately left out —
        collectors never perturb timing, so results are shared.  ``sampling``
        (and ``sampling_seed``) are deliberately **included**: a sampled
        run reports statistical estimates, not the exact numbers, so it
        must never alias an exact run's cache entry.

        Computed once per instance: the config is frozen, and the value is
        kept in the instance ``__dict__``, which the generated ``__eq__``,
        ``__hash__`` and :func:`dataclasses.replace` never read.
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        # A flat walk, not ``dataclasses.asdict`` (which deep-copies every
        # leaf): the only nested values are CacheConfigs, whose fields are
        # scalars.  The JSON blob is the same byte for byte.
        payload = {}
        for f in dataclasses.fields(self):
            if f.name in self.FINGERPRINT_EXCLUDED:
                continue
            value = getattr(self, f.name)
            if isinstance(value, CacheConfig):
                value = dict(vars(value))
            payload[f.name] = value
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def functional_fingerprint(self) -> str:
        """Stable short hash of the *functional-relevant* parameters only.

        Keys the persistent trace store (:mod:`repro.trace.store`): a
        recorded per-warp instruction stream depends on the warp width
        (active masks, lane ids) and the L1D line size (which defines the
        coalescing granularity baked into the recorded line addresses), but
        **not** on timing-only knobs — scheduler, cache geometry beyond the
        line size, latencies, CACP.  Sweeping schemes therefore
        reuses one trace per (workload, scale) instead of re-recording.
        """
        payload = {}
        for key, path in self.FUNCTIONAL_FINGERPRINT_FIELDS.items():
            value: object = self
            for part in path.split("."):
                value = getattr(value, part)
            payload[key] = value
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _validate_fingerprint_spec() -> None:
    """Fail at import time if a fingerprint constant names a missing field.

    Renaming or removing a config knob without updating
    :data:`GPUConfig.FINGERPRINT_EXCLUDED` /
    :data:`GPUConfig.FUNCTIONAL_FINGERPRINT_FIELDS` would otherwise change
    what gets hashed silently — exactly the aliasing failure mode the
    constants exist to rule out.
    """
    gpu_fields = {f.name for f in dataclasses.fields(GPUConfig)}
    unknown = GPUConfig.FINGERPRINT_EXCLUDED - gpu_fields
    if unknown:
        raise ConfigError(
            "FINGERPRINT_EXCLUDED names unknown GPUConfig field(s): "
            f"{sorted(unknown)}"
        )
    cache_fields = {f.name for f in dataclasses.fields(CacheConfig)}
    for key, path in GPUConfig.FUNCTIONAL_FINGERPRINT_FIELDS.items():
        parts = path.split(".")
        if parts[0] not in gpu_fields:
            raise ConfigError(
                f"FUNCTIONAL_FINGERPRINT_FIELDS[{key!r}] names unknown "
                f"GPUConfig field {parts[0]!r}"
            )
        # The only nesting today is GPUConfig.<cache>.<CacheConfig field>.
        if len(parts) > 2 or (len(parts) == 2 and parts[1] not in cache_fields):
            raise ConfigError(
                f"FUNCTIONAL_FINGERPRINT_FIELDS[{key!r}] has unresolvable "
                f"path {path!r}"
            )


_validate_fingerprint_spec()
