"""Shared experiment machinery: scheme runs, sweeps, and the CAWS oracle.

Results are memoized at two levels:

* **per process** keyed on the cell (workload, kwargs, scheme, scale,
  config), because several figures slice the same underlying sweep (e.g.
  Fig 9's IPC and Fig 10's MPKI come from identical runs) — bounded;
* **on disk** under ``.repro_cache/`` (see
  :mod:`repro.experiments.result_cache`), so repeated benchmark/figure
  invocations across processes skip re-simulation.  Disk entries add the
  package version.  A collector's output is a cached report of the cell
  (:func:`cell_report`), never part of its result.

:func:`run_sweep` resolves a grid as one plan: cache hits, an alias simulated
once, each missing trace recorded once, the rest spread over this process
and ``jobs - 1`` forked helpers sharing the disk caches.

A third layer sits under both: the persistent **trace** store
(``.repro_cache/traces/``, keyed on the functional fingerprint only; see
:mod:`repro.trace` and ``docs/trace_driven.md``).  A result-cache miss
simulates the cell through :func:`simulate_cell`, the one routine that
times a cell — :func:`cell_report` and
:func:`repro.obs.harness.record_events` call it too.  It looks in the trace
store first.  A trace hit replays the recorded per-warp streams through the
timing model; a trace miss first makes the trace — build the workload,
run the scheduler-free functional pass (:mod:`repro.trace.functional`),
verify its outputs, store it — and then replays it like any other cell.  Timing is therefore always a replay, and
because traces ignore timing-only knobs a scheme sweep pays for one
functional pass per workload.

With ``config.sampling != "off"`` (:mod:`repro.sampling`,
``docs/sampling.md``) a cell replays a subset of its thread blocks and
returns a :class:`~repro.stats.sampling.SampledRunResult` with 95%
confidence intervals; ``sampling`` is in the config fingerprint, so
sampled and exact results never share a cache entry.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import inspect
import math
import os
import sys
import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .. import trace as trace_mod
from ..config import GPUConfig
from ..core.cawa import apply_scheme
from ..obs.bus import EventBus
from ..stats.counters import RunResult, result_from_dict
from ..stats.report import format_table
from . import result_cache

#: The per-process memo, bounded so that a long-lived process (a ``repro
#: serve`` pool worker never calls :func:`clear_cache`) cannot grow with
#: the number of distinct cells it has run: an entry is plain data (its
#: blocks are :class:`~repro.stats.counters.BlockSummary` snapshots, a few
#: KB), and the least recently used entry goes once there are more than
#: :data:`_CACHE_CAP` (the 17 figures share far fewer cells than that).
_CACHE: "OrderedDict[Tuple, RunResult]" = OrderedDict()
_CACHE_CAP = 512
#: Cells :func:`simulate_cell` has simulated in this process.
_simulated = 0


def cells_simulated() -> int:
    """How many cells :func:`simulate_cell` has simulated for this process
    (a sweep's helpers included: their results are numbered on arrival).

    Each result carries its number as ``RunResult.cell_serial``, which a
    memo or disk-cache hit keeps (0 when another process made it): read
    before a call, this count tells the cells it simulated from the ones a
    cache answered.
    """
    return _simulated


def _numbered(result: RunResult) -> RunResult:
    global _simulated
    _simulated += 1
    result.cell_serial = _simulated
    return result


def _cache_keys(workload: str, scheme: str, scale: float, base: GPUConfig,
                use_cache: bool = True, persistent: bool = True,
                **workload_kwargs) -> Tuple[Optional[Tuple], Optional[str]]:
    """A :func:`run_scheme` call's memo and result-cache keys (the cell's),
    ``None`` where it does not cache.  The config fingerprint is in the memo
    key, or runs differing only in, say, sampling would share an entry."""
    if not use_cache:
        return None, None
    kwargs = repr(sorted(workload_kwargs.items()))  # values may not hash
    key = (workload, scheme, scale, kwargs, base.fingerprint())
    if not persistent:
        return key, None
    return key, result_cache.cache_key(
        workload, scheme, scale, apply_scheme(base, scheme).fingerprint(),
        workload_kwargs)


def _lookup(key: Optional[Tuple], disk_key: Optional[str],
            check: bool) -> Optional[RunResult]:
    """The memo's, else the result cache's (memoised), answer for a
    ``check`` caller.  ``check`` is in neither key: a verified result
    serves every caller, an unverified one is a checking caller's miss."""
    cached = _CACHE.get(key)  # no entry is keyed None
    if _serves(cached, check):
        _CACHE.move_to_end(key)
        return cached
    if disk_key is not None:
        cached = result_cache.load(disk_key)
        if _serves(cached, check):
            _memoise(key, cached)
            return cached
    return None


def _keep(key: Optional[Tuple], disk_key: Optional[str],
          result: RunResult) -> None:
    """Memoise ``result`` and store it under whichever keys are given."""
    if key is not None:
        _memoise(key, result)
    if disk_key is not None:
        result_cache.store(disk_key, result.to_dict())


def _memoise(key: Tuple, result: RunResult) -> None:
    _CACHE[key] = result
    _CACHE.move_to_end(key)
    while len(_CACHE) > _CACHE_CAP:
        _CACHE.popitem(last=False)


def build_oracle(
    workload: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    **workload_kwargs,
) -> Dict:
    """Profile per-warp execution times for the oracle CAWS scheduler.

    Runs the workload once under the baseline RR scheduler and records each
    warp's measured execution time, keyed by (block_id, warp_id_in_block) —
    the offline knowledge the paper says CAWS requires.  ``workload_kwargs``
    are the workload constructor arguments of the run being scheduled: the
    profile must be of that input (seed, balanced, ...), not the default's.
    """
    # The oracle must profile every warp of every block: a sampled
    # profiling run would only know the sampled subset, under renumbered
    # ids.  Always profile exactly; sampled CAWS replays remap the full
    # oracle onto their subset (:func:`repro.sampling.replay.remap_oracle`).
    config = (config or GPUConfig.default_sim()).with_sampling("off")
    # The profiling run is a cell of its own (device and input in its keys),
    # so run_scheme's caches keep the profile.
    result = run_scheme(workload, "rr", scale=scale, config=config,
                        **workload_kwargs)
    return {(block.block_id, warp.warp_id_in_block): warp.execution_time
            for block in result.blocks for warp in block.warps}


def scheme_oracle(
    workload: str,
    scale: float,
    base: GPUConfig,
    cfg: GPUConfig,
    **workload_kwargs,
) -> Optional[Dict]:
    """The CAWS oracle a cell under ``cfg`` (``base`` with its scheme
    applied) schedules with: :func:`build_oracle`'s profile when the
    scheduler is ``caws``, else ``None``."""
    if cfg.scheduler_name == "caws":
        return build_oracle(workload, scale, base, **workload_kwargs)
    return None


def run_scheme(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    check: bool = True,
    use_cache: bool = True,
    persistent: bool = True,
    **workload_kwargs,
) -> RunResult:
    """Run one (workload, scheme) cell and return its :class:`RunResult`.

    The caching shell around :func:`simulate_cell`, which times the cell.
    ``persistent`` enables the on-disk result cache.  A result is plain
    data however it was made: its ``blocks`` are
    :class:`~repro.stats.counters.BlockSummary` snapshots.
    """
    base = config or GPUConfig.default_sim()
    key, disk_key = _cache_keys(workload, scheme, scale, base, use_cache,
                                persistent, **workload_kwargs)
    cached = _lookup(key, disk_key, check)
    if cached is not None:
        return cached
    result = simulate_cell(workload, scheme, scale, base, check=check,
                           **workload_kwargs)
    _keep(key, disk_key, result)
    return result


def cell_report(workload: str, scheme: str, scale: float,
                config: Optional[GPUConfig], collector_cls: type):
    """``collector_cls()``'s plain-JSON ``report(result)`` of one cell,
    cached beside its result (:func:`_report_suffix`).  A miss also keeps
    the result under :func:`run_scheme`'s keys (a bus does not change it)."""
    base = config or GPUConfig.default_sim()
    key, disk_key = _cache_keys(workload, scheme, scale, base)
    report_key = disk_key + _report_suffix(collector_cls)
    cached = result_cache.load(report_key, lambda data: data["report"])
    if cached is not None:
        return cached
    collector = collector_cls()
    bus = EventBus(capacity=1)  # the collector keeps what it needs
    bus.attach(collector)
    result = simulate_cell(workload, scheme, scale, base, check=True, bus=bus)
    report = collector.report(result)
    result_cache.store(report_key, {"report": report})
    _keep(key, disk_key, result)
    return report


@functools.lru_cache(maxsize=None)
def _report_suffix(collector_cls: type) -> str:
    """``.<module>.<Class>.<digest>``; the digest hashes the source of every
    module defining ``collector_cls`` or a base, so an edit to a ``report``
    (or to what it reads beside it) misses the cache."""
    modules = dict.fromkeys(c.__module__ for c in collector_cls.__mro__[:-1])
    source = "".join(inspect.getsource(sys.modules[m]) for m in modules)
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:12]
    return f".{collector_cls.__module__}.{collector_cls.__qualname__}.{digest}"


def simulate_cell(
    workload: str,
    scheme: str,
    scale: float,
    base: GPUConfig,
    *,
    check: bool,
    bus: Optional[EventBus] = None,
    **workload_kwargs,
) -> RunResult:
    """Simulate one (workload, scheme) cell under ``base``, uncached.

    :func:`run_scheme`, :func:`cell_report` and
    :func:`repro.obs.harness.record_events` all time a cell here, so they
    agree by construction.  ``bus`` is wired before the first launch.

    The cell replays the workload's stored trace, recorded first on a miss
    (``result.recorded``) — only its sampled subset under ``sampling !=
    "off"``, returning a :class:`~repro.stats.sampling.SampledRunResult`.
    """
    cfg = apply_scheme(base, scheme)
    oracle = scheme_oracle(workload, scale, base, cfg, **workload_kwargs)
    kwargs = dict(workload_kwargs) or None
    program = _load_program(workload, scale, cfg, kwargs, check)
    fresh = program is None
    if fresh:
        # The recording always covers every block; a sampled cell
        # replays its subset from it.
        program = _record_program(workload, scheme, scale, cfg, kwargs, check)

    def replay() -> RunResult:
        if cfg.sampling != "off":
            from ..sampling.replay import replay_sampled

            return replay_sampled(program, cfg, scheme=scheme, oracle=oracle,
                                  bus=bus)
        return trace_mod.replay_program(program, cfg, scheme=scheme,
                                        oracle=oracle, bus=bus)[-1]

    # Timing is a replay either way; a cold cell's says so.
    result = trace_mod.replay_recorded(program, replay) if fresh else replay()
    # Verified by the functional pass of the trace replayed.
    result.verified = bool(program.meta.get("verified"))
    return _numbered(result)


def _serves(cached: Optional[RunResult], check: bool) -> bool:
    """Whether a memoised / stored result may answer a ``check`` caller."""
    return cached is not None and (cached.verified or not check)


def _load_program(workload: str, scale: float, cfg: GPUConfig,
                  kwargs: Optional[dict], check: bool):
    """The stored trace for one cell, or ``None`` when it must be
    (re-)recorded: a miss, or a ``check=True`` caller finding a trace
    whose functional pass skipped verification — replay computes no lane
    values, so replaying it would hand back a result nobody verified."""
    program = trace_mod.load_program(workload, scale, cfg, kwargs)
    if program is not None and check and not program.meta.get("verified"):
        return None
    return program


def _record_program(workload: str, scheme: str, scale: float, cfg: GPUConfig,
                    kwargs: Optional[dict], check: bool):
    """What a trace miss (no trace, a stale or corrupt one, or one nobody
    verified when the caller asked for verification) costs: build the
    workload, run the functional pass, verify, store."""
    program = trace_mod.record_program(
        workload, scale, cfg, scheme, check, **(kwargs or {}))
    trace_mod.store_program(program, workload, scale, cfg, kwargs)
    return program


def load_or_record_program(workload: str, scheme: str, scale: float,
                           config: GPUConfig, check: bool = True):
    """The stored trace of ``(workload, scale)``, recorded first if the
    store misses (or holds one ``check`` cannot accept).

    For callers that drive :func:`repro.trace.replay_program` themselves
    (:mod:`repro.experiments.profiling`, ``tools/opcount.py``): a miss
    costs the functional pass and no simulation.
    """
    return (_load_program(workload, scale, config, None, check)
            or _record_program(workload, scheme, scale, config, None, check))


#: ``run_scheme`` keyword parameters; anything else in ``run_sweep``'s
#: ``**kwargs`` is a workload kwarg, part of each cell's cache keys.
_RUN_SCHEME_KWARGS = frozenset(("check", "use_cache", "persistent"))


def _validate_sweep_kwargs(kwargs: Dict, workloads: List[str]) -> None:
    """Reject ``run_sweep`` kwargs that neither :func:`run_scheme` nor any
    swept workload constructor would accept.

    Else a typo (``use_cahce=False``) rides into every workload
    constructor and fails, if at all, deep inside ``make_workload``.  A
    factory that cannot be introspected or takes ``**kwargs`` lets unknown
    names through (it is the authority then).
    """
    unknown = [k for k in kwargs if k not in _RUN_SCHEME_KWARGS]
    if not unknown:
        return
    import inspect

    from ..workloads.registry import WORKLOADS

    allowed: set = set()
    for workload in workloads:
        factory = WORKLOADS.get(workload)
        if factory is None:
            # Unknown workload name: make_workload will raise its own
            # (clearer) error; don't second-guess kwargs here.
            return
        try:
            signature = inspect.signature(factory)
        except (TypeError, ValueError):
            return
        for param in signature.parameters.values():
            if param.kind is inspect.Parameter.VAR_KEYWORD:
                return
            allowed.add(param.name)
    bad = sorted(k for k in unknown if k not in allowed)
    if bad:
        names = ", ".join(repr(k) for k in bad)
        raise TypeError(
            f"run_sweep() got unexpected keyword argument(s) {names}: "
            f"not a run_scheme option ({sorted(_RUN_SCHEME_KWARGS)}) and not "
            f"a constructor parameter of any swept workload "
            f"({sorted(set(workloads))})")


Cell = Tuple[str, str]


def _dedupe(cells: Iterable[Cell], base: GPUConfig) -> List[List[Cell]]:
    """Group cells of one execution (a workload and equal
    :func:`~repro.core.cawa.apply_scheme` fingerprints: duplicates, scheme
    aliases) in grid order; a group's first cell is the one simulated."""
    groups: Dict[Tuple[str, str], List[Cell]] = {}
    for workload, scheme in dict.fromkeys(cells):
        fingerprint = apply_scheme(base, scheme).fingerprint()
        groups.setdefault((workload, fingerprint), []).append((workload, scheme))
    return list(groups.values())


class _Plan:
    """A sweep's misses (:func:`_dedupe` groups) in the order they may run:
    a ``caws`` unit waits for its workload's ``rr`` unit (the oracle's
    profile).  A workload with no usable trace records it in its first
    unit (as one process would), and its other units wait for that one."""

    def __init__(self, units: List[List[Cell]], scale: float, base: GPUConfig,
                 workload_kwargs: Optional[dict], check: bool) -> None:
        self.after: List[set] = [set() for _ in units]
        self.recorders = set()
        self.workload = [unit[0][0] for unit in units]
        for workload in dict.fromkeys(self.workload):
            indexes = [i for i, w in enumerate(self.workload) if w == workload]
            rr = [i for i in indexes if (workload, "rr") in units[i]]
            for i in indexes:
                if rr and i != rr[0] and apply_scheme(
                        base, units[i][0][1]).scheduler_name == "caws":
                    self.after[i].add(rr[0])
            if len(indexes) > 1 and _load_program(
                    workload, scale, base, workload_kwargs, check) is None:
                # The first miss, or the profile a caws first miss runs first.
                first = next(iter(self.after[indexes[0]]), indexes[0])
                self.recorders.add(first)
                for i in indexes:
                    self.after[i].update({first} - {i})
        self.ready = [i for i, waits in enumerate(self.after) if not waits]
        self.work: Dict[str, float] = {}  # a workload's costliest cell
        self.left = len(units)
        self.arrived: List[Tuple[int, concurrent.futures.Future]] = []
        self.cv = threading.Condition()

    def _take(self) -> Optional[int]:
        """The next eligible unit: recording ones, then the costliest (else
        unrun) workload's, so a sweep ends on its cheapest cells."""
        if not self.ready:
            return None
        index = min(self.ready, key=lambda i: (
            i not in self.recorders, -self.work.get(self.workload[i], math.inf), i))
        self.ready.remove(index)
        return index

    def _done(self, index: int, work: float) -> None:
        self.left -= 1
        workload = self.workload[index]
        self.work[workload] = max(self.work.get(workload, 0.0), work)
        for i, waits in enumerate(self.after):
            if index in waits:
                waits.discard(index)
                if not waits:
                    self.ready.append(i)

    def run(self, here, submit, arrive, helpers: int) -> None:
        """Run each unit by ``here(index)`` in this thread, which waits only
        when none is eligible, or by ``submit(pool, index)`` on one of
        ``helpers`` forked processes, each handed its next unit by the
        completion callback of its last; ``arrive`` takes in their values."""
        pool = helpers and concurrent.futures.ProcessPoolExecutor(helpers)
        self.idle = helpers

        def returned(index: int, future: concurrent.futures.Future) -> None:
            with self.cv:
                self.arrived.append((index, future))
                self.idle += 1
                if not future.cancelled() and future.exception() is None:
                    self._done(index, future.result()[-1])
                self.cv.notify()
            hand()

        def hand() -> None:
            while True:
                with self.cv:
                    index = self._take() if self.idle > 0 else None
                    if index is None:
                        return
                    self.idle -= 1
                submit(pool, index).add_done_callback(
                    functools.partial(returned, index))

        try:
            while True:
                with self.cv:
                    self.cv.wait_for(
                        lambda: self.ready or self.arrived or not self.left)
                    arrived, self.arrived = self.arrived, []
                    index, left = self._take(), self.left
                for i, future in arrived:
                    arrive(i, future.result())  # re-raises a helper's error
                if index is not None:
                    hand()
                    work = here(index)
                    with self.cv:
                        self._done(index, work)
                elif not left:
                    return
        finally:
            with self.cv:
                self.idle = -helpers  # hand no more
            if pool:
                pool.shutdown(wait=True, cancel_futures=True)


def _work(result: RunResult) -> float:
    """A cell's replay cost, to order a sweep by: issues plus loop steps."""
    return result.warp_instructions + result.cycles


def _sweep_worker(workload: str, scheme: str, scale: float, config: GPUConfig,
                  kwargs: Dict) -> Tuple[Dict, bool, float]:
    """A helper's cell as plain data (no simulator object crosses processes),
    whether this call simulated it, and its :func:`_work`."""
    before = _simulated
    result = run_scheme(workload, scheme, scale=scale, config=config, **kwargs)
    return result.to_dict(), result.cell_serial > before, _work(result)


def _resolve(cells: List[Cell], scale: float, base: GPUConfig, jobs: Optional[int],
             kwargs: Dict, on_cell=None) -> Dict[Cell, RunResult]:
    """Simulate a grid as one plan: cache hits, then the misses deduped
    (:func:`_dedupe`) and drawn from one queue (:class:`_Plan`) by this
    process, which memoises every result, and ``jobs - 1`` forked helpers.
    It runs alone when ``jobs`` (capped at the misses) is 1 or with the
    disk cache off (a helper's trace could not reach the other processes).
    ``on_cell(cell, result)`` is called once per cell as its result is
    known, cache hits first."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be None or at least 1, got {jobs!r}")
    check = kwargs.get("check", True)
    options = {k: v for k, v in kwargs.items() if k != "check"}
    keys = {cell: _cache_keys(*cell, scale, base, **options)
            for cell in dict.fromkeys(cells)}
    results = {cell: _lookup(*keys[cell], check) for cell in keys}
    if on_cell is not None:
        for cell, hit in results.items():
            if hit is not None:
                on_cell(cell, hit)
    units = _dedupe([c for c in keys if results[c] is None], base)
    if jobs is None:  # the usable cores
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    helpers = min(jobs, len(units)) - 1 if result_cache.enabled() else 0

    def answer(index: int, result: RunResult, ran_here: bool) -> None:
        for member, cell in enumerate(units[index]):
            results[cell] = result
            if on_cell is not None:
                on_cell(cell, result)
            if member or not ran_here:  # run_scheme kept the cell it ran,
                key, disk_key = keys[cell]  # a helper's its cache entry
                _keep(key, disk_key if member else None, result)

    def here(index: int) -> float:
        workload, scheme = units[index][0]
        result = run_scheme(workload, scheme, scale=scale,
                            config=base, **kwargs)
        answer(index, result, True)
        return _work(result)

    def submit(pool, index: int) -> concurrent.futures.Future:
        workload, scheme = units[index][0]
        return pool.submit(_sweep_worker, workload, scheme, scale,
                           base, kwargs)

    def arrive(index: int, returned: Tuple[Dict, bool, float]) -> None:
        result = result_from_dict(returned[0])
        answer(index, _numbered(result) if returned[1] else result, False)

    if units:
        workload_kwargs = {k: v for k, v in kwargs.items()
                           if k not in _RUN_SCHEME_KWARGS} or None
        _Plan(units, scale, base, workload_kwargs, check).run(
            here, submit, arrive, helpers)
    return results


def run_sweep(
    workloads: Iterable[str],
    schemes: Iterable[str],
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    sampled: Optional[str] = None,
    jobs: Optional[int] = None,
    on_cell: Optional[Callable[[Cell, RunResult], None]] = None,
    **kwargs,
) -> Dict[Tuple[str, str], RunResult]:
    """Run the full (workload x scheme) grid.

    Extra keyword arguments split two ways: names in
    ``("check", "use_cache", "persistent")``
    forward to :func:`run_scheme` as options;
    anything else forwards as a workload constructor kwarg (e.g.
    ``balanced=True`` for bfs).  A name that is neither raises
    :class:`TypeError` naming the offending key up front, instead of
    surfacing later as an opaque constructor failure inside a helper.

    ``sampled`` selects statistical trace replay (:mod:`repro.sampling`)
    at one spec for every cell (``"blocks:0.25"``); sampled cells return
    :class:`~repro.stats.sampling.SampledRunResult`.

    The grid is one plan (:func:`_resolve`) on ``jobs`` processes, this
    one included: ``None`` means the usable cores, ``1`` this one only.  A
    helper's result comes back through :meth:`RunResult.to_dict`, equal to
    the one this process would have made.  ``on_cell(cell, result)`` sees
    each cell as soon as its result is known.
    """
    for knob in ("parallel", "max_workers"):
        if knob in kwargs:
            raise TypeError(
                f"run_sweep() no longer takes {knob}=: pass jobs=N, the "
                f"processes the sweep runs on (None: the usable cores)")
    workloads, schemes = list(workloads), list(schemes)
    _validate_sweep_kwargs(kwargs, workloads)
    if sampled and not isinstance(sampled, str):
        raise TypeError(
            f"run_sweep(sampled={sampled!r}): the per-workload calibrated "
            "rates are gone; pass a spec such as 'blocks:0.25'")
    base = config or GPUConfig.default_sim()
    if sampled:
        base = base.with_sampling(sampled)
    grid = [(w, s) for w in workloads for s in schemes]
    return _resolve(grid, scale, base, jobs, kwargs, on_cell)


def sweep_table(results: Dict[Cell, RunResult], workloads: List[str],
                schemes: List[str], metric, header: str) -> str:
    """Render a sweep as a workload-by-scheme text table."""
    rows = [[workload] + [metric(results[(workload, scheme)])
                          for scheme in schemes] for workload in workloads]
    return format_table([header] + schemes, rows)


def clear_cache(disk: bool = False) -> None:
    """Drop everything memoized in this process: results and decoded trace
    programs (tests use this for isolation).

    ``disk=True`` also wipes the persistent on-disk result cache *and* the
    trace store; by default only the in-process memoization is dropped so a
    deliberate cache warmup (e.g. from a sweep) survives.
    """
    _CACHE.clear()
    trace_mod.store.forget()
    if disk:
        result_cache.clear()
        trace_mod.clear()
