"""Set-associative cache with pluggable replacement/partitioning policies.

The cache models tags and replacement state only (data is functionally
served by :class:`~repro.memory.data.GlobalMemory`).  Policies control the
fill-way choice within a way range, which is how CACP's critical/non-critical
partitioning plugs in without the cache knowing about criticality.

Observers can subscribe to access/evict events; the reuse-distance profiler
(Fig 3) and zero-reuse accounting (Fig 15) are implemented that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..config import CacheConfig
from ..feedback.signals import Sig
from ..obs.events import Ev
from .replacement import ReplacementPolicy
from .request import MemRequest

_EV_CACHE_HIT = int(Ev.CACHE_HIT)
_EV_CACHE_MISS = int(Ev.CACHE_MISS)
_EV_CACHE_FILL = int(Ev.CACHE_FILL)
_EV_CACHE_EVICT = int(Ev.CACHE_EVICT)
_EV_CACHE_BYPASS = int(Ev.CACHE_BYPASS)

_SIG_MISS = int(Sig.MISS)
_SIG_FILL = int(Sig.FILL)
_SIG_EVICT = int(Sig.EVICT)


@dataclass(slots=True)
class CacheLine:
    """Tag-array entry plus policy and CAWA bookkeeping state."""

    valid: bool = False
    tag: int = -1
    line_addr: int = -1
    # Replacement-policy state.
    last_use: int = 0
    rrpv: int = 0
    signature: int = 0
    # Reuse bookkeeping.
    reuse_count: int = 0
    filled_by_critical: bool = False
    fill_pc: int = -1
    fill_cycle: float = 0.0
    # Warp attribution of the fill (``req.warp_key[1:]``): lets eviction
    # feedback signals name the *victim's* owner (CCWS victim tag arrays,
    # CIAO interference scores).  -1 when unattributed.
    fill_block: int = -1
    fill_warp: int = -1
    # CACP per-line flags (Algorithm 4).
    c_reuse: bool = False
    nc_reuse: bool = False
    in_critical_partition: bool = False

    @property
    def reused(self) -> bool:
        return self.reuse_count > 0

    def reset_for_fill(self, line_addr: int, req: MemRequest) -> None:
        self.valid = True
        self.tag = line_addr
        self.line_addr = line_addr
        self.reuse_count = 0
        self.filled_by_critical = req.is_critical
        self.fill_pc = req.pc
        self.fill_cycle = req.cycle
        self.fill_block = req.warp_key[1]
        self.fill_warp = req.warp_key[2]
        self.c_reuse = False
        self.nc_reuse = False
        self.signature = req.signature


@dataclass
class CacheStats:
    """Aggregate counters for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    critical_accesses: int = 0
    critical_hits: int = 0
    evictions: int = 0
    zero_reuse_evictions: int = 0
    critical_fill_evictions: int = 0
    critical_zero_reuse_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def critical_hit_rate(self) -> float:
        if not self.critical_accesses:
            return 0.0
        return self.critical_hits / self.critical_accesses

    @property
    def zero_reuse_fraction(self) -> float:
        if not self.evictions:
            return 0.0
        return self.zero_reuse_evictions / self.evictions

    @property
    def critical_zero_reuse_fraction(self) -> float:
        if not self.critical_fill_evictions:
            return 0.0
        return self.critical_zero_reuse_evictions / self.critical_fill_evictions


class Cache:
    """One set-associative cache level."""

    def __init__(self, config: CacheConfig, policy: ReplacementPolicy) -> None:
        self.config = config
        self.policy = policy
        #: The policy's optional L1-bypass predicate (CACP's extension).
        self._should_bypass = getattr(policy, "should_bypass", None)
        self._line_size = config.line_size
        self._sets: List[List[CacheLine]] = [
            [CacheLine() for _ in range(config.ways)] for _ in range(config.sets)
        ]
        self.stats = CacheStats()
        self.observers: List = []
        #: Event bus (``repro.obs``) or ``None``; set by the wire helpers.
        self.obs = None
        #: ``LEVEL_L1D`` (0) or ``LEVEL_L2`` (1) stamped on emitted records.
        self.obs_level = 0
        #: SM id stamped on records, or -1 to derive it from the request's
        #: ``warp_key`` (shared caches serve every SM).
        self.obs_owner = -1
        #: FeedbackChannel (``repro.feedback``) or ``None``; set by
        #: :func:`repro.feedback.wire_gpu_feedback` /
        #: :func:`~repro.feedback.attach_signal_tap` only when a scheme
        #: subscribes or a tap records, so the disabled cost is one
        #: pointer test.
        self.fb = None
        #: SM id stamped on published signals, or -1 to derive it from the
        #: request's ``warp_key`` (the shared L2 serves every SM).
        self.fb_owner = -1
        #: ``LEVEL_L1D`` (0) or ``LEVEL_L2`` (1) on published signals.
        self.fb_level = 0

    # ------------------------------------------------------------------
    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        """Tag probe without side effects (no stats, no promotion)."""
        for line in self._sets[self.config.set_index(line_addr)]:
            if line.valid and line.tag == line_addr:
                return line
        return None

    def access(self, req: MemRequest) -> bool:
        """Probe + fill-on-miss; returns True on hit.

        Stores are modeled write-through / write-allocate: they probe and
        fill like loads (GPU L1s in GPGPU-sim's Fermi config evict on write;
        allocating keeps the model simple and preserves the contention the
        paper studies).
        """
        line_addr = req.line_addr
        sets = self._sets
        lines = sets[(line_addr // self._line_size) % len(sets)]
        stats = self.stats
        stats.accesses += 1
        critical = req.is_critical
        if critical:
            stats.critical_accesses += 1

        for line in lines:
            if line.tag == line_addr and line.valid:
                stats.hits += 1
                if critical:
                    stats.critical_hits += 1
                line.reuse_count += 1
                self.policy.on_hit(line, req)
                for obs in self.observers:
                    obs.on_access(req, hit=True, line=line)
                if self.obs is not None:
                    owner = self.obs_owner
                    self.obs.emit((
                        _EV_CACHE_HIT, req.cycle,
                        owner if owner >= 0 else req.warp_key[0],
                        self.obs_level, req.pc, req.line_addr,
                        1 if req.is_critical else 0,
                    ))
                return True

        stats.misses += 1
        fb = self.fb
        if fb is not None:
            # Published *before* the fill so subscribers probe their victim
            # tag state as it stood when the miss was detected (the fill's
            # own eviction lands after this record).
            owner = self.fb_owner
            fb.publish((
                _SIG_MISS, req.cycle,
                owner if owner >= 0 else req.warp_key[0],
                self.fb_level, req.warp_key[1], req.warp_key[2],
                req.line_addr, req.pc,
            ))
        if self._should_bypass is not None and self._should_bypass(req):
            # Bypass: the request is serviced from L2/DRAM without
            # allocating a line, so it cannot evict useful data.
            stats.bypasses += 1
            if self.obs is not None:
                owner = self.obs_owner
                self.obs.emit((
                    _EV_CACHE_BYPASS, req.cycle,
                    owner if owner >= 0 else req.warp_key[0],
                    self.obs_level, req.line_addr,
                ))
        else:
            self._fill(lines, req)
        for obs in self.observers:
            obs.on_access(req, hit=False, line=None)
        if self.obs is not None:
            owner = self.obs_owner
            self.obs.emit((
                _EV_CACHE_MISS, req.cycle,
                owner if owner >= 0 else req.warp_key[0],
                self.obs_level, req.pc, req.line_addr,
                1 if req.is_critical else 0,
            ))
        return False

    def _fill(self, lines: List[CacheLine], req: MemRequest) -> None:
        lo, hi = self.policy.way_range(lines, req, self.config.ways)
        way = self.policy.choose_way(lines, req, lo, hi)
        line = lines[way]
        if line.valid:
            self._evict(line, req)
        line.reset_for_fill(req.line_addr, req)
        # The policy may retune its partition at runtime, so prefer its
        # current boundary over the static config value.
        boundary = getattr(self.policy, "critical_ways", self.config.critical_ways)
        line.in_critical_partition = way < boundary
        self.policy.on_fill(line, req)
        if self.obs is not None:
            owner = self.obs_owner
            self.obs.emit((
                _EV_CACHE_FILL, req.cycle,
                owner if owner >= 0 else req.warp_key[0],
                self.obs_level, req.line_addr, 1 if req.is_critical else 0,
            ))
        fb = self.fb
        if fb is not None:
            owner = self.fb_owner
            fb.publish((
                _SIG_FILL, req.cycle,
                owner if owner >= 0 else req.warp_key[0],
                self.fb_level, req.warp_key[1], req.warp_key[2],
                req.line_addr, 1 if req.is_critical else 0,
            ))

    def _evict(self, line: CacheLine, req: MemRequest) -> None:
        self.stats.evictions += 1
        if line.reuse_count == 0:
            self.stats.zero_reuse_evictions += 1
        if line.filled_by_critical:
            self.stats.critical_fill_evictions += 1
            if line.reuse_count == 0:
                self.stats.critical_zero_reuse_evictions += 1
        self.policy.on_evict(line, req)
        for obs in self.observers:
            obs.on_evict(line)
        if self.obs is not None:
            owner = self.obs_owner
            self.obs.emit((
                _EV_CACHE_EVICT, req.cycle,
                owner if owner >= 0 else req.warp_key[0],
                self.obs_level, line.line_addr,
                1 if line.reuse_count > 0 else 0,
            ))
        fb = self.fb
        if fb is not None:
            # Dual attribution: the victim's filler (from the line) and the
            # evicting requester (from the fill request being serviced).
            owner = self.fb_owner
            fb.publish((
                _SIG_EVICT, req.cycle,
                owner if owner >= 0 else req.warp_key[0],
                self.fb_level, line.fill_block, line.fill_warp,
                line.line_addr, 1 if line.reuse_count > 0 else 0,
                req.warp_key[1], req.warp_key[2],
            ))

    def invalidate_all(self) -> None:
        """Drop all lines (used between kernel launches in tests)."""
        for lines in self._sets:
            for line in lines:
                line.valid = False
                line.tag = -1

    def next_event_time(self, now: float) -> float:
        """Always ``inf``: the tag array is passive.

        A cache only changes state when *accessed*; it never spontaneously
        wakes anything.  Defined so the cache is a uniform member of the
        device-wide ``next_event_time`` protocol (see :mod:`repro.gpu.clock`).
        """
        return math.inf

    def occupancy(self) -> float:
        total = self.config.sets * self.config.ways
        valid = sum(1 for lines in self._sets for line in lines if line.valid)
        return valid / total
