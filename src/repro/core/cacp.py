"""Criticality-Aware Cache Prioritization — CACP (paper Section 3.3, Alg. 4).

CACP separates latency-critical from non-critical cache lines in the L1
data cache.  On a fill, the line is classified as critical when the
Critical Cache Block Predictor (CCBP) predicts its signature critical or
the requesting warp is itself critical; a modified SHiP predictor picks the
SRRIP insertion position so only lines with expected reuse are retained.
Hits and evictions train both predictors per Algorithm 4.

Two partition modes are provided:

* ``"priority"`` (default) — logical partitioning: critical lines insert at
  a protected RRPV and non-critical lines at SHiP-guided (long/distant)
  RRPV, with victim selection over the whole set.  Critical data ages out
  last without giving up any capacity.
* ``"static"`` — the paper's strict way partition (8 of 16 ways reserved).

The static mode reproduces the paper's hardware proposal exactly; the
priority mode is the variant that wins at this simulator's scale (16 warps
per SM rather than 48, so fill-side capacity restrictions bite harder than
inter-warp interference).  ``benchmarks/test_ablation_cawa.py`` compares
the two.
"""

from __future__ import annotations

from typing import List

from ..memory.replacement import (
    RRPV_LONG,
    RRPV_MAX,
    RRPV_NEAR,
    ReplacementPolicy,
    first_invalid,
    srrip_victim,
)
from ..memory.request import MemRequest
from ..obs.events import Ev
from .ccbp import CriticalCacheBlockPredictor

_EV_CACP_INSERT = int(Ev.CACP_INSERT)
_EV_CACP_PROMOTE = int(Ev.CACP_PROMOTE)

#: Insertion RRPV for critical-classified lines (closer than SHiP's "long").
RRPV_PROTECTED = 1

PARTITION_MODES = ("priority", "static")
#: Partition modes no longer modeled -> why; ``GPUConfig`` refuses each by
#: name instead of calling it unknown.
REMOVED_PARTITION_MODES = {
    "dynamic": "the UCP-style retuned way split measured below the default "
    "'priority' mode on kmeans (EXPERIMENTS.md, Ablations); use 'priority'",
}


class _CACPShip:
    """The modified signature-based hit predictor used inside CACP.

    Same structure as SHiP [38] but trained on *all* reuse (critical and
    non-critical) and consulted only for the insertion position.  Counters
    are wider than classic SHiP's 2 bits so sporadic zero-reuse evictions
    under heavy churn do not immediately flip a hot signature to streaming.
    """

    def __init__(self, table_size: int = 256, counter_max: int = 7, initial: int = 3) -> None:
        self.table = [initial] * table_size
        self._counter_max = counter_max
        self._table_size = table_size

    def _index(self, signature: int) -> int:
        return signature % self._table_size

    def insertion_rrpv(self, signature: int) -> int:
        """Long (2) when reuse is predicted, distant (3) otherwise."""
        return RRPV_LONG if self.table[self._index(signature)] > 0 else RRPV_MAX

    def increment(self, signature: int) -> None:
        idx = self._index(signature)
        if self.table[idx] < self._counter_max:
            self.table[idx] += 1

    def decrement(self, signature: int) -> None:
        idx = self._index(signature)
        if self.table[idx] > 0:
            self.table[idx] -= 1


class CACPPolicy(ReplacementPolicy):
    """L1D management policy implementing Algorithm 4."""

    name = "cacp"

    def __init__(
        self,
        critical_ways: int,
        total_ways: int,
        table_size: int = 256,
        mode: str = "priority",
    ) -> None:
        if not 0 < critical_ways < total_ways:
            raise ValueError(
                f"critical_ways must be in (0, {total_ways}), got {critical_ways}"
            )
        if mode not in PARTITION_MODES:
            raise ValueError(f"mode must be one of {PARTITION_MODES}, got {mode!r}")
        self.mode = mode
        self.critical_ways = critical_ways
        self.total_ways = total_ways
        self.ccbp = CriticalCacheBlockPredictor(table_size=table_size)
        self.ship = _CACPShip(table_size=table_size)
        #: Event bus (``repro.obs``) or ``None``; set by ``wire_gpu``.
        self.obs = None

    # ------------------------------------------------------------------
    # Fill classification and routing (CacheFill in Algorithm 4)
    # ------------------------------------------------------------------
    def classify_critical(self, req: MemRequest) -> bool:
        """Should this fill be treated as critical data?

        GPU L1 reuse is dominated by intra-warp locality, so the requesting
        warp's criticality is a strong prior on the future reuser's
        criticality; CCBP refines the verdict per signature (and demotes
        wrongly-routed signatures via its eviction training).
        """
        return req.is_critical or self.ccbp.predicts_critical(req.signature)

    def choose_way(self, lines: List, req: MemRequest, full: bool) -> int:
        # The eligible range is the partition the fill is routed to (the
        # whole set in priority mode).  Prefer an invalid way in it, then
        # an invalid way anywhere (cold-start: an empty partition should
        # not force evictions in the other one), then its SRRIP victim.
        ways = len(lines)
        if self.mode == "priority":
            lo, hi = 0, ways
        elif self.classify_critical(req):
            lo, hi = 0, self.critical_ways
        else:
            lo, hi = self.critical_ways, ways
        if not full:
            way = first_invalid(lines, lo, hi)
            if way < 0:
                way = first_invalid(lines, 0, ways)
            if way >= 0:
                return way
        return srrip_victim(lines, lo, hi)

    def on_fill(self, line, req: MemRequest) -> None:
        critical = self.classify_critical(req)
        if self.mode == "priority":
            # Logical partition: the flag records the classification rather
            # than a physical way range.
            line.in_critical_partition = critical
        if critical:
            # Latency-critical data is protected: inserted closer than any
            # SHiP insertion so non-critical churn ages out first.
            line.rrpv = RRPV_PROTECTED
        else:
            # Non-critical data keeps the SHiP-guided insertion: signatures
            # with no observed reuse stream through at distant RRPV.
            line.rrpv = self.ship.insertion_rrpv(req.signature)
        line.signature = req.signature
        line.c_reuse = False
        line.nc_reuse = False
        if self.obs is not None:
            self.obs.emit((_EV_CACP_INSERT, req.cycle, req.warp_key[0],
                           req.signature, 1 if critical else 0, line.rrpv))

    # ------------------------------------------------------------------
    # CacheHit in Algorithm 4
    # ------------------------------------------------------------------
    def on_hit(self, line, req: MemRequest) -> None:
        line.rrpv = RRPV_NEAR  # promotion position in both partitions
        if self.obs is not None:
            self.obs.emit((_EV_CACP_PROMOTE, req.cycle, req.warp_key[0],
                           line.signature, 1 if req.is_critical else 0))
        if req.is_critical:
            line.c_reuse = True
            self.ccbp.train_critical_reuse(line.signature)
        else:
            line.nc_reuse = True
        self.ship.increment(line.signature)

    # ------------------------------------------------------------------
    # EvictLine in Algorithm 4
    # ------------------------------------------------------------------
    def on_evict(self, line, req: MemRequest) -> None:
        if not line.c_reuse and line.nc_reuse and line.in_critical_partition:
            # The line should have been classified non-critical.
            self.ccbp.train_wrong_routing(line.signature)
        elif not line.c_reuse and not line.nc_reuse and not line.in_critical_partition:
            # No reuse at all from this signature.  Only non-critical
            # evictions train SHiP's no-reuse verdict: zero-reuse critical
            # lines are usually victims of churn (the thing CACP exists to
            # stop), not evidence the signature is streaming.
            self.ship.decrement(line.signature)
