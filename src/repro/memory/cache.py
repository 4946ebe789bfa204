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
one record per decision, handed to the cache's event bus (``obs``).  The
reuse-distance profiler (Fig 3) is an event-bus collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..config import CacheConfig
from ..obs.events import LEVEL_L1D, Ev
from .replacement import ReplacementPolicy
from .request import MemRequest

_EV_CACHE_HIT = int(Ev.CACHE_HIT)
_EV_CACHE_MISS = int(Ev.CACHE_MISS)
_EV_CACHE_FILL = int(Ev.CACHE_FILL)
_EV_CACHE_EVICT = int(Ev.CACHE_EVICT)
#: The base policy's ``on_evict``, a no-op a fill does not call.
_NO_EVICT_LESSON = ReplacementPolicy.on_evict


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
    # records name the *victim's* owner.  -1 when unattributed.
    fill_block: int = -1
    fill_warp: int = -1
    # CACP per-line flags (Algorithm 4).
    c_reuse: bool = False
    nc_reuse: bool = False
    in_critical_partition: bool = False


@dataclass
class CacheStats:
    """Aggregate counters for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
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

    def __init__(self, config: CacheConfig, policy: ReplacementPolicy,
                 owner: int = -1, level: int = LEVEL_L1D) -> None:
        self.config = config
        self.policy = policy
        self._line_size = config.line_size
        self._ways = config.ways
        #: Per-set way lists; ``()`` until the set's first fill.
        self._sets: List[Sequence[CacheLine]] = [()] * config.sets
        #: Residency index: ``line_addr -> CacheLine`` for every valid line.
        self._index: Dict[int, CacheLine] = {}
        #: Valid ways per set; a set at ``config.ways`` has no invalid way.
        self._valid_ways: List[int] = [0] * config.sets
        self.stats = CacheStats()
        #: Event bus (``repro.obs``) or ``None``; set by ``wire_gpu``.  The
        #: disabled cost is one pointer test per record.
        self.obs = None
        #: SM id stamped on records, or -1 to derive it from the request's
        #: ``warp_key`` (the shared L2 serves every SM).
        self.owner = owner
        #: ``LEVEL_L1D`` (0) or ``LEVEL_L2`` (1) stamped on records.
        self.level = level

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
                owner = self.owner
                self.obs.emit((
                    _EV_CACHE_HIT, req.cycle,
                    owner if owner >= 0 else req.warp_key[0],
                    self.level, req.pc, req.line_addr, 1 if critical else 0,
                ))
            return True

        stats.misses += 1
        obs = self.obs
        if obs is not None:
            # Emitted *before* the fill: the fill's own eviction record
            # follows the miss that caused it.
            key = req.warp_key
            owner = self.owner
            obs.emit((
                _EV_CACHE_MISS, req.cycle, owner if owner >= 0 else key[0],
                self.level, req.pc, req.line_addr, 1 if critical else 0,
                key[1], key[2],
            ))
        self._fill(req)
        return False

    def _fill(self, req: MemRequest) -> None:
        """Fill ``req``'s line into the way the policy chooses, evicting
        (and counting) the line that held it."""
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
        key = req.warp_key
        obs = self.obs
        critical = req.is_critical
        if line.valid:
            victim = line.line_addr
            del self._index[victim]
            stats = self.stats
            stats.evictions += 1
            reused = line.reuse_count
            if not reused:
                stats.zero_reuse_evictions += 1
            if line.filled_by_critical:
                stats.critical_fill_evictions += 1
                if not reused:
                    stats.critical_zero_reuse_evictions += 1
            if type(policy).on_evict is not _NO_EVICT_LESSON:
                policy.on_evict(line, req)
            if obs is not None:
                # Dual attribution: the victim's filler (from the line) and
                # the evicting requester (from the fill request).
                owner = self.owner
                obs.emit((
                    _EV_CACHE_EVICT, req.cycle, owner if owner >= 0 else key[0],
                    self.level, victim, 1 if reused else 0,
                    line.fill_block, line.fill_warp, key[1], key[2],
                ))
        else:
            line.valid = True
            valid_ways[set_idx] += 1
        line.line_addr = line_addr
        line.reuse_count = 0
        line.filled_by_critical = critical
        line.fill_block = key[1]
        line.fill_warp = key[2]
        line.c_reuse = line.nc_reuse = False
        line.signature = req.signature
        self._index[line_addr] = line
        # Read per fill: CACP's dynamic mode retunes its boundary.
        line.in_critical_partition = way < policy.critical_ways
        policy.on_fill(line, req)
        if obs is not None:
            owner = self.owner
            obs.emit((
                _EV_CACHE_FILL, req.cycle, owner if owner >= 0 else key[0],
                self.level, line_addr, 1 if critical else 0, key[1], key[2],
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
