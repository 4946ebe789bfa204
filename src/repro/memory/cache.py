"""Set-associative cache with pluggable replacement/partitioning policies.

The cache models tags and replacement state only (data is functionally
served by :class:`~repro.memory.data.GlobalMemory`).  Policies choose the
fill way — one call per fill — which is how CACP's critical/non-critical
partitioning plugs in without the cache knowing about criticality.

The tag store is an index plus per-set ways.  The *residency index* maps
``line_addr -> CacheLine`` for exactly the valid lines, so a probe
(:meth:`Cache.access`, :meth:`Cache.lookup`) is one dict lookup whatever the
associativity; the per-set way lists are what a *fill* works on (the
policy's way choice), and a per-set count of valid ways tells the fill
when no way is invalid.  Index and count change at the three
places validity does: fill, eviction, :meth:`Cache.invalidate_all`.  A
set's :class:`CacheLine` objects are made at its first fill — a wide device
builds hundreds of caches, most of whose sets a small kernel never touches.

What a probe, fill or eviction did reaches the rest of the simulator as
event-bus records (``obs``) and feedback signals (``fb``); the
reuse-distance profiler (Fig 3) is an event-bus collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

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
    line_addr: int = -1
    # Replacement-policy state.
    last_use: int = 0
    rrpv: int = 0
    signature: int = 0
    # Reuse bookkeeping.
    reuse_count: int = 0
    filled_by_critical: bool = False
    # Warp attribution of the fill (``req.warp_key[1:]``): lets eviction
    # feedback signals name the *victim's* owner (CCWS victim tag arrays,
    # CIAO interference scores).  -1 when unattributed.
    fill_block: int = -1
    fill_warp: int = -1
    # CACP per-line flags (Algorithm 4).
    c_reuse: bool = False
    nc_reuse: bool = False
    in_critical_partition: bool = False

    def reset_for_fill(self, line_addr: int, req: MemRequest) -> None:
        self.valid = True
        self.line_addr = line_addr
        self.reuse_count = 0
        self.filled_by_critical = req.is_critical
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
        self._ways = config.ways
        #: Per-set way lists; ``()`` until the set's first fill.
        self._sets: List[Sequence[CacheLine]] = [()] * config.sets
        #: Residency index: ``line_addr -> CacheLine`` for every valid line.
        self._index: Dict[int, CacheLine] = {}
        #: Valid ways per set; a set at ``config.ways`` has no invalid way.
        self._valid_ways: List[int] = [0] * config.sets
        self.stats = CacheStats()
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
        return self._index.get(line_addr)

    def access(self, req: MemRequest) -> bool:
        """Probe + fill-on-miss; returns True on hit.

        Stores are modeled write-through / write-allocate: they probe and
        fill like loads (GPU L1s in GPGPU-sim's Fermi config evict on write;
        allocating keeps the model simple and preserves the contention the
        paper studies).
        """
        stats = self.stats
        stats.accesses += 1
        critical = req.is_critical
        if critical:
            stats.critical_accesses += 1

        line = self._index.get(req.line_addr)
        if line is not None:
            stats.hits += 1
            if critical:
                stats.critical_hits += 1
            line.reuse_count += 1
            self.policy.on_hit(line, req)
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
            self._fill(req)
        if self.obs is not None:
            owner = self.obs_owner
            self.obs.emit((
                _EV_CACHE_MISS, req.cycle,
                owner if owner >= 0 else req.warp_key[0],
                self.obs_level, req.pc, req.line_addr,
                1 if req.is_critical else 0,
            ))
        return False

    def _fill(self, req: MemRequest) -> None:
        line_addr = req.line_addr
        sets = self._sets
        set_idx = (line_addr // self._line_size) % len(sets)
        ways = self._ways
        lines = sets[set_idx]
        if not lines:
            lines = sets[set_idx] = [CacheLine() for _ in range(ways)]
        policy = self.policy
        valid_ways = self._valid_ways
        way = policy.choose_way(lines, req, valid_ways[set_idx] == ways)
        line = lines[way]
        if line.valid:
            self._evict(line, req)
        else:
            valid_ways[set_idx] += 1
        line.reset_for_fill(line_addr, req)
        self._index[line_addr] = line
        # Read per fill: CACP's dynamic mode retunes its boundary.
        line.in_critical_partition = way < policy.critical_ways
        policy.on_fill(line, req)
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
        del self._index[line.line_addr]
        stats = self.stats
        stats.evictions += 1
        if line.reuse_count == 0:
            stats.zero_reuse_evictions += 1
        if line.filled_by_critical:
            stats.critical_fill_evictions += 1
            if line.reuse_count == 0:
                stats.critical_zero_reuse_evictions += 1
        self.policy.on_evict(line, req)
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
        self._index.clear()
        self._valid_ways = [0] * len(self._sets)

    def occupancy(self) -> float:
        return len(self._index) / (self.config.sets * self.config.ways)
