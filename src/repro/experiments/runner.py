"""Shared experiment machinery: scheme runs, sweeps, and the CAWS oracle.

Results are memoized at two levels:

* **per process** keyed on (workload, scheme, scale, observer set), because
  several figures slice the same underlying sweep (e.g. Fig 9's IPC and
  Fig 10's MPKI come from identical runs) — bounded, see :data:`_CACHE`;
* **on disk** under ``.repro_cache/`` (see
  :mod:`repro.experiments.result_cache`), so repeated benchmark/figure
  invocations across processes skip re-simulation.  Disk entries are keyed
  on the full config fingerprint plus the package version and invalidate
  automatically when either changes.

:func:`run_sweep` can additionally fan the (workload x scheme) grid over a
process pool (``parallel=True``); workers share the disk cache.

A third layer sits under both: the persistent **trace** store
(``.repro_cache/traces/``, keyed on the functional fingerprint only; see
:mod:`repro.trace` and ``docs/trace_driven.md``).  A result-cache miss
simulates the cell through :func:`simulate_cell`, the one routine that
times a cell — :func:`repro.obs.harness.record_events` calls it too, so a
cell's numbers cannot depend on who asked.  It looks in the trace store
first.  A trace hit replays the recorded per-warp streams through the
timing model; a trace miss first makes the trace — build the workload,
run the scheduler-free functional pass (:mod:`repro.trace.functional`),
verify its outputs, store it — and then replays it like any other cell.  Timing is therefore always a replay, and
because traces ignore timing-only knobs a scheme sweep pays for one
functional pass per workload.

With ``config.sampling != "off"`` (see :mod:`repro.sampling` and
``docs/sampling.md``) the trace path replays only the config-selected
subset of blocks or warp intervals and returns a
:class:`~repro.stats.sampling.SampledRunResult` — extrapolated metrics
with per-metric 95% confidence intervals.  ``run_sweep(sampled=True)``
drives this per workload from the calibrated safe-rate table
(``repro sample calibrate``); sampled and exact results live under
distinct result-cache keys because ``sampling`` is part of the config
fingerprint.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

from .. import trace as trace_mod
from ..config import GPUConfig
from ..core.cawa import apply_scheme
from ..obs.bus import EventBus
from ..stats.accuracy import CriticalityAccuracyTracker
from ..stats.counters import RunResult, result_from_dict
from ..stats.report import format_table
from ..stats.reuse import ReuseDistanceProfiler
from . import result_cache

#: The per-process memo, bounded twice over so that a long-lived process (a
#: ``repro serve`` pool worker never calls :func:`clear_cache`) cannot grow
#: with the number of distinct cells it has run: an entry holds
#: :class:`~repro.stats.counters.BlockSummary` snapshots — what a disk-cache
#: hit returns, a few KB — never the launch's live ``ThreadBlock`` / ``Warp``
#: graph (~0.6 MB for bfs @ 0.5), and the least recently used entry goes
#: once there are more than :data:`_CACHE_CAP` (the 17 figures share far
#: fewer cells than that).
_CACHE: "OrderedDict[Tuple, RunResult]" = OrderedDict()
_CACHE_CAP = 512
_ORACLE_CACHE: Dict[Tuple, Dict] = {}
#: Cells :func:`simulate_cell` has simulated in this process.
_simulated = 0


def cells_simulated() -> int:
    """How many cells :func:`simulate_cell` has simulated in this process.

    Each result it makes carries its number as ``RunResult.cell_serial``,
    which a memo or disk-cache hit keeps (0 when another process made it):
    read before a call, this count tells the cells that call simulated
    from the ones a cache answered.
    """
    return _simulated


def _numbered(result: RunResult) -> RunResult:
    global _simulated
    _simulated += 1
    result.cell_serial = _simulated
    return result


def _memoised(key: Tuple, check: bool) -> Optional[RunResult]:
    """The memo's entry for ``key`` if it may answer a ``check`` caller."""
    cached = _CACHE.get(key)
    if not _serves(cached, check):
        return None
    _CACHE.move_to_end(key)
    return cached


def _memoise(key: Tuple, result: RunResult) -> None:
    result.blocks = result.block_summaries()
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
    # profiling run would only know the sampled subset and, for blocks
    # mode, under renumbered ids.  Always profile exactly; sampled CAWS
    # replays remap the full oracle onto their subset
    # (:func:`repro.sampling.replay.remap_oracle`).
    config = (config or GPUConfig.default_sim()).with_sampling("off")
    # Per-warp times depend on the device profiled on and on the input, so
    # the profiling config's fingerprint and the workload kwargs are part
    # of the key (as in run_scheme's memo).
    key = (workload, scale, config.fingerprint(),
           tuple(sorted(workload_kwargs.items())))
    if key in _ORACLE_CACHE:
        return _ORACLE_CACHE[key]
    result = run_scheme(workload, "rr", scale=scale, config=config,
                        **workload_kwargs)
    oracle: Dict[Tuple[int, int], float] = {}
    for block in result.blocks:
        for warp in block.warps:
            oracle[(block.block_id, warp.warp_id_in_block)] = warp.execution_time
    _ORACLE_CACHE[key] = oracle
    return oracle


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
    with_accuracy: bool = False,
    with_reuse: bool = False,
    use_cache: bool = True,
    observers: Optional[list] = None,
    persistent: bool = True,
    **workload_kwargs,
) -> RunResult:
    """Run one (workload, scheme) cell and return its :class:`RunResult`.

    The caching shell around :func:`simulate_cell`, which times the cell.
    ``with_accuracy`` attaches the Fig 11 CPL accuracy tracker;
    ``with_reuse`` attaches the Fig 3 reuse-distance profiler.  Their
    outputs land in ``result.extra``.  ``observers`` are additional SM
    issue observers (e.g. the Fig 12 priority tracer).

    ``persistent`` enables the on-disk result cache for plain runs (no
    workload kwargs, no observers, no reuse profiler — those carry live
    objects that do not serialize).  Disk hits return results whose
    ``blocks`` are :class:`~repro.stats.counters.BlockSummary` snapshots,
    which duck-type the live blocks for every analysis in this package.
    """
    base = config or GPUConfig.default_sim()
    # The config fingerprint is part of the memo key: without it, two runs
    # differing only in fingerprinted knobs (cache geometry, sampling, ...)
    # would alias to the same in-process entry.
    key = (workload, scheme, scale, with_accuracy, with_reuse,
           tuple(sorted(workload_kwargs.items())), base.fingerprint())
    cacheable = use_cache and not workload_kwargs and observers is None
    # ``check`` is not part of either key: a verified result serves every
    # caller.  One that no run verified is a miss for a checking caller,
    # who simulates (or replays a verified trace) and overwrites it.
    memoised = _memoised(key, check) if cacheable else None
    if memoised is not None:
        return memoised

    disk_key = None
    if cacheable and persistent and not with_reuse:
        disk_key = result_cache.cache_key(
            workload, scheme, scale, apply_scheme(base, scheme).fingerprint(),
            with_accuracy,
        )
        cached = result_cache.load(disk_key)
        if _serves(cached, check):
            _memoise(key, cached)
            return cached

    accuracy_tracker = CriticalityAccuracyTracker() if with_accuracy else None
    issue_observers = list(observers or ())
    if accuracy_tracker is not None:
        issue_observers.append(accuracy_tracker)
    reuse_profiler = bus = None
    if with_reuse:
        # The profiler reads the L1 probe records off an event bus whose
        # own ring keeps a single record.
        reuse_profiler = ReuseDistanceProfiler()
        bus = EventBus(capacity=1)
        bus.attach(reuse_profiler)

    result = simulate_cell(workload, scheme, scale, base, check=check,
                           observers=issue_observers, bus=bus,
                           **workload_kwargs)
    if accuracy_tracker is not None:
        result.extra["cpl_accuracy"] = accuracy_tracker.accuracy(result)
    if reuse_profiler is not None:
        result.extra["reuse_profiler"] = reuse_profiler
    if cacheable:
        _memoise(key, result)
    if disk_key is not None:
        result_cache.store(disk_key, result)
    return result


def simulate_cell(
    workload: str,
    scheme: str,
    scale: float,
    base: GPUConfig,
    *,
    check: bool,
    observers: Iterable = (),
    bus: Optional[EventBus] = None,
    **workload_kwargs,
) -> RunResult:
    """Simulate one (workload, scheme) cell under ``base``, uncached.

    :func:`run_scheme` and :func:`repro.obs.harness.record_events` both
    time a cell here, so they agree by construction.  ``observers`` (SM
    issue observers) and ``bus`` (the event bus, if any) attach before the
    first launch.

    The cell replays the workload's stored trace, recorded first on a miss
    (``result.recorded``) — only its sampled subset under ``sampling !=
    "off"``, returning a :class:`~repro.stats.sampling.SampledRunResult`.
    """
    cfg = apply_scheme(base, scheme)
    oracle = scheme_oracle(workload, scale, base, cfg, **workload_kwargs)
    observers = list(observers)
    kwargs = dict(workload_kwargs) or None
    program = _load_program(workload, scale, cfg, kwargs, check)
    fresh = program is None
    if fresh:
        # The recording always covers every block; a sampled cell
        # replays its subset from it.
        program = _record_program(workload, scheme, scale, cfg, kwargs, check)

    def replay() -> RunResult:
        if cfg.sampling != "off":
            from ..sampling import calibrate as sampling_calibrate
            from ..sampling.replay import replay_sampled

            # The workload's calibrated envelope at this rate, else the
            # conservative default.
            envelope, source = sampling_calibrate.envelope_for(
                workload, cfg.sampling)
            return replay_sampled(
                program, cfg, scheme=scheme, oracle=oracle,
                observers=observers, bus=bus,
                envelope_rel=envelope, envelope_source=source,
            )
        return trace_mod.replay_program(
            program, cfg, scheme=scheme, oracle=oracle,
            observers=observers, bus=bus,
        )[-1]

    # Timing is a replay either way; a cold cell's says so.
    result = trace_mod.replay_recorded(program, replay) if fresh else replay()
    # Verified by the functional pass of the trace replayed.
    result.verified = bool(program.meta.get("verified"))
    return _numbered(result)


def _serves(cached: Optional[RunResult], check: bool) -> bool:
    """Whether a memoised / stored result may answer a ``check`` caller."""
    return cached is not None and (cached.verified or not check)


def _load_program(
    workload: str,
    scale: float,
    cfg: GPUConfig,
    kwargs: Optional[dict],
    check: bool,
):
    """The stored trace for one cell, or ``None`` when it must be
    (re-)recorded: a miss, or a ``check=True`` caller finding a trace
    whose functional pass skipped verification — replay computes no lane
    values, so replaying it would hand back a result nobody verified."""
    program = trace_mod.load_program(workload, scale, cfg, kwargs)
    if program is not None and check and not program.meta.get("verified"):
        return None
    return program


def _record_program(
    workload: str,
    scheme: str,
    scale: float,
    cfg: GPUConfig,
    kwargs: Optional[dict],
    check: bool,
):
    """What a trace miss (no trace, a stale or corrupt one, or one nobody
    verified when the caller asked for verification) costs: build the
    workload, run the functional pass, verify, store."""
    program = trace_mod.record_program(
        workload, scale, cfg, scheme, check, **(kwargs or {}))
    trace_mod.store_program(program, workload, scale, cfg, kwargs)
    return program


def load_or_record_program(
    workload: str,
    scheme: str,
    scale: float,
    config: GPUConfig,
    check: bool = True,
):
    """The stored trace of ``(workload, scale)``, recorded first if the
    store misses (or holds one ``check`` cannot accept).

    For callers that drive :func:`repro.trace.replay_program` themselves
    (:mod:`repro.experiments.profiling`, ``tools/opcount.py``): a miss
    costs the functional pass and no simulation.
    """
    return (_load_program(workload, scale, config, None, check)
            or _record_program(workload, scheme, scale, config, None, check))


#: ``run_scheme`` keyword parameters; anything else in ``run_sweep``'s
#: ``**kwargs`` is a workload kwarg and disables disk-cache fan-out.
_RUN_SCHEME_KWARGS = frozenset(
    ("check", "with_accuracy", "with_reuse", "use_cache", "observers",
     "persistent")
)


def _validate_sweep_kwargs(kwargs: Dict, workloads: List[str]) -> None:
    """Reject ``run_sweep`` kwargs that neither :func:`run_scheme` nor any
    swept workload constructor would accept.

    Without this check a typo (``with_acuracy=True``) silently rides the
    ``**workload_kwargs`` channel into every workload constructor and only
    fails — confusingly, or not at all — deep inside ``make_workload``.
    Validation is best-effort permissive: if any swept workload's factory
    cannot be introspected or takes ``**kwargs`` itself, unknown names are
    allowed through (the factory is the authority then).
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
            f"({sorted(set(workloads))})"
        )


def _dedupe_parallel_cells(
    cells: List[Tuple[str, str]],
    base_for,
) -> List[List[Tuple[str, str]]]:
    """Group grid cells that resolve to the same simulation execution.

    Two cells share an execution when their workload matches and their
    scheme names resolve — via :func:`~repro.core.cawa.apply_scheme` — to
    configs with identical result-cache fingerprints (duplicate grid
    entries, or scheme aliases).  Dispatching both would simulate the same
    cell twice; the parallel sweep submits one representative per group
    (the first cell, preserving grid order) and fans the shared result
    back out.  This is the library-level half of the request coalescing
    that :mod:`repro.serve` performs across tenants.

    ``base_for`` maps a workload name to its base config — sampled sweeps
    give each workload its own calibrated sampling rate, so the base is no
    longer grid-wide.
    """
    groups: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
    order: List[Tuple[str, str]] = []
    fingerprints: Dict[Tuple[str, str], str] = {}
    for workload, scheme in cells:
        cell = (workload, scheme)
        if cell not in fingerprints:
            fingerprints[cell] = apply_scheme(
                base_for(workload), scheme
            ).fingerprint()
        key = (workload, fingerprints[cell])
        group = groups.get(key)
        if group is None:
            groups[key] = [cell]
            order.append(key)
        elif cell not in group:
            group.append(cell)
    return [groups[key] for key in order]


def _sweep_worker(args: Tuple) -> Tuple[Tuple[str, str], Dict]:
    """Process-pool worker: run one cell, return it in plain-dict form.

    Module-level (picklable by name); returns ``result.to_dict()`` rather
    than the live :class:`RunResult` so heavy simulator objects never cross
    the process boundary.  The worker also populates the shared disk cache.
    """
    workload, scheme, scale, config, kwargs = args
    result = run_scheme(workload, scheme, scale=scale, config=config, **kwargs)
    return (workload, scheme), result.to_dict()


def run_sweep(
    workloads: Iterable[str],
    schemes: Iterable[str],
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    sampled=False,
    **kwargs,
) -> Dict[Tuple[str, str], RunResult]:
    """Run the full (workload x scheme) grid.

    Extra keyword arguments split two ways: names in
    ``("check", "with_accuracy", "with_reuse", "use_cache", "observers",
    "persistent")`` forward to :func:`run_scheme` as options;
    anything else forwards as a workload constructor kwarg (e.g.
    ``balanced=True`` for bfs).  A name that is neither raises
    :class:`TypeError` naming the offending key up front, instead of
    surfacing later as an opaque constructor failure inside a worker.

    ``sampled`` selects statistical trace replay (:mod:`repro.sampling`):
    ``True`` looks up each workload's calibrated safe rate from the
    ``repro sample calibrate`` table (uncalibrated workloads use the
    conservative :data:`~repro.sampling.calibrate.DEFAULT_SPEC`; workloads
    whose calibration *failed* its error target run exactly — the escape
    hatch ``sampled=False`` / CLI ``--exact`` forces exact runs
    everywhere).  A spec string (``"blocks:0.25"``) applies one rate to
    every workload.  Sampled cells return
    :class:`~repro.stats.sampling.SampledRunResult` and compose with the
    result cache and ``parallel=True`` dedupe.

    With ``parallel=True`` the grid fans out over a
    :class:`~concurrent.futures.ProcessPoolExecutor` (``max_workers``
    defaults to ``min(len(grid), os.cpu_count())``).  Parallel results come
    back deserialized — their ``blocks`` are
    :class:`~repro.stats.counters.BlockSummary` snapshots — and are entered
    into this process's memoization cache so follow-up ``run_scheme`` calls
    hit.  Cells that need live observers cannot cross process boundaries;
    passing ``observers`` forces the serial path.
    """
    workloads = list(workloads)
    schemes = list(schemes)
    _validate_sweep_kwargs(kwargs, workloads)
    grid = [(w, s) for w in workloads for s in schemes]
    results: Dict[Tuple[str, str], RunResult] = {}

    if sampled:
        from ..sampling import calibrate as sampling_calibrate

        base = config or GPUConfig.default_sim()
        configs: Dict[str, GPUConfig] = {}
        for workload in workloads:
            if isinstance(sampled, str):
                spec: Optional[str] = sampled
            else:
                spec, _, _ = sampling_calibrate.lookup(workload)
            if spec is None:
                # Calibration failed its target for this workload: exact.
                configs[workload] = base.with_sampling("off")
            else:
                configs[workload] = base.with_sampling(spec)
        _config_for = configs.__getitem__
    else:
        base = config or GPUConfig.default_sim()

        def _config_for(workload: str) -> GPUConfig:
            return base

    serializable = (kwargs.get("observers") is None
                    and not kwargs.get("with_reuse", False))
    if parallel and len(grid) > 1 and serializable:
        import concurrent.futures

        use_cache = kwargs.get("use_cache", True)
        with_accuracy = kwargs.get("with_accuracy", False)

        def _cell_key(workload: str, scheme: str) -> Tuple:
            return (workload, scheme, scale, with_accuracy,
                    kwargs.get("with_reuse", False), (),
                    _config_for(workload).fingerprint())

        # Disk entries are read and written under the same conditions
        # run_scheme itself uses for persistence.
        fan_disk = (use_cache
                    and kwargs.get("persistent", True)
                    and not kwargs.get("with_reuse", False)
                    and all(k in _RUN_SCHEME_KWARGS for k in kwargs))

        def _disk_key(workload: str, scheme: str) -> str:
            return result_cache.cache_key(
                workload, scheme, scale,
                apply_scheme(_config_for(workload), scheme).fingerprint(),
                with_accuracy,
            )

        check = kwargs.get("check", True)
        pending: List[Tuple[str, str]] = []
        for workload, scheme in grid:
            cell = (workload, scheme)
            if cell in results or cell in pending:
                continue
            found = (_memoised(_cell_key(workload, scheme), check)
                     if use_cache else None)
            if found is None and fan_disk:
                # A disk hit is a JSON read: this process does it, and
                # only the misses are worth a worker.
                found = result_cache.load(_disk_key(workload, scheme))
                if _serves(found, check):
                    _memoise(_cell_key(workload, scheme), found)
                else:
                    found = None
            if found is not None:
                results[cell] = found
            else:
                pending.append(cell)
        if pending:
            # Cells sharing an execution fingerprint (duplicates, scheme
            # aliases) run once; every member of the group gets the result.
            groups = _dedupe_parallel_cells(pending, _config_for)
            submit = [(g[0][0], g[0][1], scale, _config_for(g[0][0]), kwargs)
                      for g in groups]
            workers = max_workers or min(len(submit), os.cpu_count() or 1)
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                for group, (cell, data) in zip(
                    groups, pool.map(_sweep_worker, submit)
                ):
                    result = result_from_dict(data)
                    for workload, scheme in group:
                        results[(workload, scheme)] = result
                        if use_cache:
                            _memoise(_cell_key(workload, scheme), result)
                        # Alias cells also get their own disk-cache entries
                        # so later serial run_scheme calls hit.
                        if fan_disk and (workload, scheme) != cell:
                            result_cache.store(_disk_key(workload, scheme),
                                               result)
        return results

    for workload, scheme in grid:
        results[(workload, scheme)] = run_scheme(
            workload, scheme, scale=scale, config=_config_for(workload),
            **kwargs
        )
    return results


def sweep_table(
    results: Dict[Tuple[str, str], RunResult],
    workloads: List[str],
    schemes: List[str],
    metric,
    header: str,
) -> str:
    """Render a sweep as a workload-by-scheme text table."""
    rows = []
    for workload in workloads:
        row = [workload]
        for scheme in schemes:
            row.append(metric(results[(workload, scheme)]))
        rows.append(row)
    return format_table([header] + schemes, rows)


def clear_cache(disk: bool = False) -> None:
    """Drop everything memoized in this process: results, oracles and
    decoded trace programs (tests use this for isolation).

    ``disk=True`` also wipes the persistent on-disk result cache *and* the
    trace store; by default only the in-process memoization is dropped so a
    deliberate cache warmup (e.g. from a sweep) survives.
    """
    _CACHE.clear()
    _ORACLE_CACHE.clear()
    trace_mod.store.forget()
    if disk:
        result_cache.clear()
        trace_mod.clear()
