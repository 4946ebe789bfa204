"""Cache replacement policies: LRU, SRRIP, and SHiP.

Policies own the per-line recency/RRPV state and the fill-way choice within
a set.  The CACP policy (the paper's contribution) lives in
:mod:`repro.core.cacp` and composes these building blocks with criticality
partitioning.
"""

from __future__ import annotations

from typing import List

from .request import MemRequest

#: 2-bit re-reference prediction values (RRIP [12]).
RRPV_MAX = 3
RRPV_LONG = 2
RRPV_NEAR = 0


def first_invalid(lines: List, lo: int, hi: int) -> int:
    """The first invalid way in ``[lo, hi)``, or -1."""
    for way in range(lo, hi):
        if not lines[way].valid:
            return way
    return -1


def srrip_victim(lines: List, lo: int, hi: int) -> int:
    """SRRIP's victim in ways ``[lo, hi)``: the first way at ``RRPV_MAX``,
    after aging the range until one is there — one step of ``RRPV_MAX -
    max`` (no RRPV is ever above ``RRPV_MAX``), then the first way at the
    old maximum."""
    for way in range(lo, hi):
        if lines[way].rrpv >= RRPV_MAX:
            return way
    window = lines[lo:hi]
    rrpvs = [line.rrpv for line in window]
    top = max(rrpvs)
    step = RRPV_MAX - top
    for line in window:
        line.rrpv += step
    return lo + rrpvs.index(top)


class ReplacementPolicy:
    """Interface: pick fill ways, maintain per-line promotion state."""

    name = "base"
    #: Ways ``[0, critical_ways)`` are the critical partition: a fill into
    #: one of them is marked ``in_critical_partition``.  Only CACP has one.
    critical_ways = 0

    def choose_way(self, lines: List, req: MemRequest, full: bool) -> int:
        """The way of ``lines`` (one set) to fill for ``req``: an invalid
        way if there is one, else the policy's victim.  ``full`` is the
        cache's promise that the set has no invalid way, so the scan for
        one is skipped."""
        raise NotImplementedError

    def on_fill(self, line, req: MemRequest) -> None:
        """Initialize policy state for a just-filled line."""

    def on_hit(self, line, req: MemRequest) -> None:
        """Promote a line on a hit."""

    def on_evict(self, line, req: MemRequest) -> None:
        """Learn from an eviction (SHiP, CACP).  A cache does not call a
        policy that keeps this no-op."""


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used via a monotone access stamp."""

    name = "lru"

    def __init__(self) -> None:
        self._clock = 0

    def choose_way(self, lines: List, req: MemRequest, full: bool) -> int:
        if not full:
            way = first_invalid(lines, 0, len(lines))
            if way >= 0:
                return way
        # First minimum: ties go to the lowest way.
        victim = 0
        oldest = lines[0].last_use
        for way in range(1, len(lines)):
            last_use = lines[way].last_use
            if last_use < oldest:
                victim, oldest = way, last_use
        return victim

    def on_fill(self, line, req: MemRequest) -> None:
        self._clock = line.last_use = self._clock + 1

    def on_hit(self, line, req: MemRequest) -> None:
        self._clock = line.last_use = self._clock + 1


class SRRIPPolicy(ReplacementPolicy):
    """Static RRIP [12]: insert at long re-reference, promote to near on hit."""

    name = "srrip"

    def choose_way(self, lines: List, req: MemRequest, full: bool) -> int:
        if not full:
            way = first_invalid(lines, 0, len(lines))
            if way >= 0:
                return way
        return srrip_victim(lines, 0, len(lines))

    def on_fill(self, line, req: MemRequest) -> None:
        line.rrpv = RRPV_LONG

    def on_hit(self, line, req: MemRequest) -> None:
        line.rrpv = RRPV_NEAR


class SHiPPolicy(SRRIPPolicy):
    """Signature-based Hit Predictor [38] over SRRIP.

    A table of saturating counters, indexed by the request signature, learns
    whether lines inserted by that signature receive re-references.  Lines
    from signatures with no observed reuse are inserted at distant RRPV so
    they are evicted quickly.
    """

    name = "ship"

    def __init__(self, table_size: int = 256, counter_max: int = 3, initial: int = 1) -> None:
        self.table = [initial] * table_size
        self._counter_max = counter_max
        self._table_size = table_size

    def _index(self, signature: int) -> int:
        return signature % self._table_size

    def predicts_reuse(self, signature: int) -> bool:
        return self.table[self._index(signature)] > 0

    def train_hit(self, signature: int) -> None:
        idx = self._index(signature)
        if self.table[idx] < self._counter_max:
            self.table[idx] += 1

    def train_no_reuse(self, signature: int) -> None:
        idx = self._index(signature)
        if self.table[idx] > 0:
            self.table[idx] -= 1

    def insertion_rrpv(self, signature: int) -> int:
        """SHiP-guided insertion: long when reuse predicted, distant else."""
        return RRPV_LONG if self.predicts_reuse(signature) else RRPV_MAX

    def on_fill(self, line, req: MemRequest) -> None:
        line.rrpv = self.insertion_rrpv(req.signature)
        line.signature = req.signature

    def on_hit(self, line, req: MemRequest) -> None:
        line.rrpv = RRPV_NEAR
        self.train_hit(line.signature)

    def on_evict(self, line, req: MemRequest) -> None:
        if not line.reuse_count:
            self.train_no_reuse(line.signature)


class BRRIPPolicy(SRRIPPolicy):
    """Bimodal RRIP: distant insertion, long insertion every Nth fill.

    The thrash-resistant half of DRRIP [12]: most lines insert at distant
    RRPV (evicted quickly), with a deterministic 1-in-``long_interval``
    trickle inserted at long RRPV to retain a sample of the working set.
    """

    name = "brrip"

    def __init__(self, long_interval: int = 32) -> None:
        self.long_interval = long_interval
        self._fills = 0

    def on_fill(self, line, req: MemRequest) -> None:
        self._fills += 1
        line.rrpv = RRPV_LONG if self._fills % self.long_interval == 0 else RRPV_MAX


class DRRIPPolicy(SRRIPPolicy):
    """Dynamic RRIP via set dueling [12, 29, 30].

    A few leader sets are dedicated to SRRIP and to BRRIP; misses in each
    group steer a saturating PSEL counter, and all follower sets insert
    with the currently-winning policy.  Promotion and victim selection are
    plain SRRIP everywhere.
    """

    name = "drrip"

    def __init__(
        self,
        sets: int = 8,
        line_size: int = 128,
        leader_sets: int = 2,
        psel_bits: int = 10,
        long_interval: int = 32,
    ) -> None:
        if leader_sets * 2 > sets:
            raise ValueError("too many leader sets for the cache geometry")
        self.sets = sets
        self.line_size = line_size
        self._srrip = SRRIPPolicy()
        self._brrip = BRRIPPolicy(long_interval)
        #: Leader set indices: first `leader_sets` follow SRRIP, last follow BRRIP.
        self._srrip_leaders = frozenset(range(leader_sets))
        self._brrip_leaders = frozenset(range(sets - leader_sets, sets))
        self._psel_max = (1 << psel_bits) - 1
        #: PSEL above midpoint -> BRRIP wins (SRRIP missed more).
        self.psel = self._psel_max // 2

    def _set_of(self, req: MemRequest) -> int:
        return (req.line_addr // self.line_size) % self.sets

    def _insertion_policy(self, set_idx: int) -> SRRIPPolicy:
        if set_idx in self._srrip_leaders:
            return self._srrip
        if set_idx in self._brrip_leaders:
            return self._brrip
        return self._brrip if self.psel > self._psel_max // 2 else self._srrip

    def on_fill(self, line, req: MemRequest) -> None:
        set_idx = self._set_of(req)
        # A fill is a miss: train PSEL on the leader sets.
        if set_idx in self._srrip_leaders and self.psel < self._psel_max:
            self.psel += 1
        elif set_idx in self._brrip_leaders and self.psel > 0:
            self.psel -= 1
        self._insertion_policy(set_idx).on_fill(line, req)


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (lru / srrip / brrip / drrip / ship)."""
    policies = {
        "lru": LRUPolicy,
        "srrip": SRRIPPolicy,
        "brrip": BRRIPPolicy,
        "drrip": DRRIPPolicy,
        "ship": SHiPPolicy,
    }
    if name not in policies:
        raise ValueError(
            f"unknown replacement policy {name!r}; expected one of {sorted(policies)}"
        )
    return policies[name](**kwargs)
