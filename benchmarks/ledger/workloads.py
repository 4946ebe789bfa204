"""The four ledger workloads.

Each workload is a fixed list of *operations* (a ``run_scheme`` cell, a
``run_sweep`` phase, a serve submission) repeated in whole passes until
``--seconds`` have elapsed.  Everything runs against the default engine
knobs — ``GPUConfig.default_sim(...)``, ``run_scheme``, ``ServerThread`` as
a user gets them at this commit; the timed paths never call
``with_clock`` / ``with_backend`` / ``with_issue_core``, so flipping a
default or deleting a knob later shows up as a gain instead of breaking
the benchmark.  Inputs come from ``--seed`` only.

Pass sizes are set for a 10 s run on a 2-core box: about 7 s (narrow_figs,
2 passes), 3.5 s (wide_mem, 3 passes), 5.5 s (sweep_store, 2 passes) and
3 s (serve_mix, 4 rounds).
"""

from __future__ import annotations

import collections
import contextlib
import gc
import math
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import catalog
from layers import instrument_gpu, module_boundaries
from spans import Tracer

SETUP_REPEATS = 3
WARMUP_CELL = ("bfs", "rr", 1.0)


class Op(NamedTuple):
    """One completed operation."""

    name: str                 # stable within a pass: "bfs/rr", "cold", "r0/a/cold"
    seconds: float            # nominal-speed seconds (raw on serve_mix)
    raw_s: float
    winst: int                # simulated warp instructions in the delivered result(s)
    stats: tuple              # simulated signature; must repeat exactly
    ok: bool
    note: str = ""


class Ctx:
    """What a pass needs to time and trace itself."""

    def __init__(self, sampler, tracer: Tracer, built: bool = False, fine: bool = False) -> None:
        self.sampler = sampler
        self.tracer = tracer
        #: Simulator cells: build GPU / workload in the harness (phase spans)
        #: instead of calling run_scheme.  Both halves of a traced run do.
        self.built = built
        #: Install the per-call layer wrappers (the traced half).
        self.fine = fine

    def timed(self, name: str, fn, cell: Optional[str] = None):
        """Run ``fn`` as one coarse span; returns ``(value, seconds, raw)``.

        A collection first, outside the window, so the cyclic GC's
        generation counters start every operation from the same place.
        """
        gc.collect()
        tracer = self.tracer
        previous, tracer.cell = tracer.cell, cell or name
        try:
            with tracer.span(name) as record:
                value = fn()
        finally:
            tracer.cell = previous
        t0, t1 = record["start"], record["end"]
        return value, self.sampler.corrected(t0, t1), t1 - t0


def sim_signature(result) -> tuple:
    return (result.cycles, result.warp_instructions,
            result.l1_stats.misses, result.dram_accesses)


def nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Workload:
    name = ""
    #: Report nominal-speed seconds (see hostspeed.py); False = raw.
    corrected = True
    min_passes = 1

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.cache_dir: Optional[str] = None
        #: Values the untraced pass gets for free (hit ratios, serve splits).
        self.free: Dict[str, float] = {}

    # -- set-up ----------------------------------------------------------
    def _use_cache_dir(self, path: str) -> None:
        """Point both cache-dir resolutions at ``path`` and drop the in-process
        memo; the repo's ``.repro_cache/`` is never read or written."""
        from repro.experiments import result_cache, runner

        result_cache.set_cache_dir(path)
        os.environ["REPRO_CACHE_DIR"] = path
        runner.clear_cache()

    def setup(self) -> None:
        """Private cache dir + the warm-up cell."""
        from repro.config import GPUConfig
        from repro.experiments import runner

        self.cache_dir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch)
        self._use_cache_dir(self.cache_dir)
        workload, scheme, scale = WARMUP_CELL
        runner.run_scheme(workload, scheme, scale=scale, config=GPUConfig.default_sim(),
                          use_cache=False, persistent=False, seed=self.seed)

    def teardown(self) -> None:
        from repro.experiments import result_cache

        result_cache.set_cache_dir(None)
        os.environ.pop("REPRO_CACHE_DIR", None)
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    # -- measurement -----------------------------------------------------
    def run_pass(self, ctx: Ctx, index: int) -> List[Op]:
        raise NotImplementedError

    def speedup_pairs(self) -> List[Tuple[float, float]]:
        """``(ipc_rr, ipc_cawa)`` per kernel entering ``cawa_speedup``."""
        raise NotImplementedError

    def end_to_end(self, passes: List[List[Op]], timed_wall: float) -> Dict[str, float]:
        by_name: Dict[str, List[Op]] = {}
        for ops in passes:
            for op in ops:
                by_name.setdefault(op.name, []).append(op)
        latency = {name: statistics.median(op.seconds for op in ops)
                   for name, ops in by_name.items()}
        wall = sum(latency.values())
        winst = sum(op.winst for op in passes[0])
        pairs = self.speedup_pairs()
        return {
            "wall_s": wall,
            "sim_winst_per_s": winst / wall,
            "cawa_speedup": statistics.geometric_mean([cawa / rr for rr, cawa in pairs]),
            "job_latency_p50_s": nearest_rank(list(latency.values()), 0.5),
            "job_latency_p90_s": nearest_rank(list(latency.values()), 0.9),
            "jobs_per_s": len(latency) / wall,
        }

    def check(self, passes: List[List[Op]]) -> Tuple[int, int, List[str]]:
        """``(attempted, failed, notes)``: an operation fails when its own
        check failed or when it repeats with a different simulated signature."""
        attempted = failed = 0
        notes: List[str] = []
        first: Dict[str, tuple] = {}
        for ops in passes:
            for op in ops:
                attempted += 1
                reference = first.setdefault(op.name, op.stats)
                if not op.ok or op.stats != reference:
                    failed += 1
                    notes.append(f"{op.name}: {op.note or 'simulated statistics changed between passes'}")
        return attempted, failed, notes

    # -- traced run ------------------------------------------------------
    def probes(self, ctx: Ctx) -> Tuple[Dict[str, float], int, List[str]]:
        """Traced-run extras: ``(metrics, attempted, failure notes)``."""
        return {}, 0, []

    def per_layer(self, tracer: Tracer) -> Dict[str, float]:
        """Per-layer metrics of the traced pass; called after teardown."""
        return {}


# ======================================================================
# narrow_figs / wide_mem: simulator cells
# ======================================================================
class SimCells(Workload):
    #: ``(workload, scheme, scale, num_sms)``; num_sms None = default device.
    cells: Tuple[Tuple[str, str, float, Optional[int]], ...] = ()
    speedup_kernels: Tuple[str, ...] = ()

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        #: IPC per cell; results themselves are dropped so that no finished
        #: GPU outlives its operation.
        self._ipc: Dict[str, float] = {}

    @staticmethod
    def _config(num_sms: Optional[int]):
        from repro.config import GPUConfig

        return (GPUConfig.default_sim() if num_sms is None
                else GPUConfig.default_sim(num_sms=num_sms))

    def _via_api(self, cell):
        from repro.experiments.runner import run_scheme

        workload, scheme, scale, num_sms = cell
        return run_scheme(workload, scheme, scale=scale, config=self._config(num_sms),
                          use_cache=False, persistent=False, seed=self.seed)

    def _built(self, cell, ctx: Ctx):
        """The same cell through the public pieces run_scheme is made of,
        with a span per phase and, in the traced half, the layer wrappers."""
        from repro.core.cawa import apply_scheme
        from repro.gpu import GPU
        from repro.workloads import make_workload

        workload, scheme, scale, num_sms = cell
        tracer = ctx.tracer
        with tracer.span("gpu.build"):
            gpu = GPU(apply_scheme(self._config(num_sms), scheme))
        if ctx.fine:
            with tracer.span("instrument"):
                instrument_gpu(tracer, gpu)
        with tracer.span("workloads.build"):
            spec = make_workload(workload, scale=scale, seed=self.seed).build(gpu)
        with tracer.span("launch"):
            result = gpu.launch(spec.kernel, spec.grid_dim, spec.block_dim, scheme=scheme)
        with tracer.span("workloads.verify"):
            if not spec.verify(gpu):
                raise AssertionError(f"{workload}: functional verification failed")
        return result

    def run_pass(self, ctx: Ctx, index: int) -> List[Op]:
        ops = []
        totals: collections.Counter = collections.Counter()
        for cell in self.cells:
            name = f"{cell[0]}/{cell[1]}"
            run = (lambda: self._built(cell, ctx)) if ctx.built else (lambda: self._via_api(cell))
            try:
                result, seconds, raw = ctx.timed(name, run)
            except AssertionError as exc:  # NumPy-reference verification
                ops.append(Op(name, 0.0, 0.0, 0, (), False, str(exc)))
                continue
            self._ipc[name] = result.ipc
            ops.append(Op(name, seconds, raw, result.warp_instructions,
                          sim_signature(result), True))
            totals.update({   # Counter.update adds
                "cycles": result.cycles, "skipped": result.cycles_skipped, "raw_s": raw,
                "thread_inst": result.thread_instructions,
                "l1_acc": result.l1_stats.accesses, "l1_hit": result.l1_stats.hits,
                "l1_miss": result.l1_stats.misses,
                "l2_acc": result.l2_stats.accesses, "l2_hit": result.l2_stats.hits,
            })
        if index == 0 and totals:
            self.free = {
                "gpu.sim_cycles": totals["cycles"],
                "gpu.sim_cycles_per_s": _ratio(totals["cycles"], totals["raw_s"]),
                "gpu.cycles_skipped_share": _ratio(totals["skipped"], totals["cycles"]),
                "memory.cache.l1d.hit_ratio": _ratio(totals["l1_hit"], totals["l1_acc"]),
                "memory.l1d_mpki": 1000.0 * _ratio(totals["l1_miss"], totals["thread_inst"]),
                "memory.l2.hit_ratio": _ratio(totals["l2_hit"], totals["l2_acc"]),
            }
        return ops

    def speedup_pairs(self):
        return [(self._ipc[f"{k}/rr"], self._ipc[f"{k}/cawa"]) for k in self.speedup_kernels]

    # -- traced ----------------------------------------------------------
    def per_layer(self, tracer):
        t = tracer.total
        out = dict(self.free)
        out["gpu.build_s"] = tracer.span_total("gpu.build")
        out["workloads.build_s"] = tracer.span_total("workloads.build")
        out["workloads.verify_s"] = tracer.span_total("workloads.verify")
        for layer in ("gpu.launch", "sm.tick", "sm.next_wake_time", "sm.lsu.issue",
                      "scheduling.select", "simt.executor.execute", "core.cacp.choose_way",
                      "memory.hierarchy.access", "memory.l2.access", "memory.dram.access"):
            out[f"{layer}.self_s"] = t(layer)
            out[f"{layer}.calls"] = t(layer, "calls")
        for layer in ("scheduling.notify_issue", "core.cpl.on_issue", "core.cpl.on_branch",
                      "memory.cache.l1d.access"):
            out[f"{layer}.self_s"] = t(layer)
        out["core.cpl.calls"] = t("core.cpl.on_issue", "calls") + t("core.cpl.on_branch", "calls")
        out["sm.tick.useful_ratio"] = _ratio(t("sm.tick", "counted"), t("sm.tick", "calls"))
        out["sm.lsu.lines_per_access"] = _ratio(t("sm.lsu.issue", "counted"), t("sm.lsu.issue", "calls"))
        out["scheduling.select.declined_ratio"] = _ratio(
            t("scheduling.select", "counted"), t("scheduling.select", "calls"))
        return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Half the figures' scale: every kernel still fills both SMs to their
#: 16-warp limit, in half as many waves.
NARROW_SCALE = 0.5


class NarrowFigs(SimCells):
    name = catalog.NARROW
    cells = tuple((w, s, NARROW_SCALE, None)
                  for w in ("bfs", "kmeans", "needle", "strcltr_small", "backprop")
                  for s in ("rr", "gto", "cawa"))
    #: The workload's Sens kernels (Table 2); backprop is Non-sens.
    speedup_kernels = ("bfs", "kmeans", "needle", "strcltr_small")

    def probes(self, ctx):
        from repro.config import GPUConfig
        from repro.experiments.runner import run_scheme
        from repro.feedback import record_signals
        from repro.obs import record_events

        out, attempted, notes = {}, 0, []
        cfg = GPUConfig.default_sim()
        scale = NARROW_SCALE

        def plain(scheme):
            return run_scheme("bfs", scheme, scale=scale, config=cfg,
                              use_cache=False, persistent=False)

        # The recording harnesses take no workload kwargs, so these cells
        # use the workload's own default seed on both sides of each ratio.
        base, _, base_raw = ctx.timed("probe/obs/plain", lambda: plain("cawa"))
        (result, bus), _, on_raw = ctx.timed(
            "probe/obs/on", lambda: record_events("bfs", "cawa", scale=scale, config=cfg))
        out["obs.on_overhead_ratio"] = on_raw / base_raw
        out["obs.events_per_winst"] = bus.emitted / result.warp_instructions
        attempted += 1
        if sim_signature(result) != sim_signature(base):
            notes.append("obs: recording events changed the simulated statistics")

        base, _, base_raw = ctx.timed("probe/feedback/plain", lambda: plain("gto"))
        (result, signals), _, tap_raw = ctx.timed(
            "probe/feedback/tap", lambda: record_signals("bfs", "gto", scale=scale, config=cfg))
        out["feedback.tap_overhead_ratio"] = tap_raw / base_raw
        out["feedback.signals_per_winst"] = len(signals) / result.warp_instructions
        attempted += 1
        if sim_signature(result) != sim_signature(base):
            notes.append("feedback: tapping signals changed the simulated statistics")
        return out, attempted, notes


class WideMem(SimCells):
    name = catalog.WIDE
    min_passes = 3   # three operations only: a median needs three samples
    STRCLTR = ("strcltr_mid", 4.0, 64)
    MEMSTRESS = ("synthetic_memstress", 6.0, 160)
    cells = (
        (STRCLTR[0], "rr", STRCLTR[1], STRCLTR[2]),
        (STRCLTR[0], "cawa", STRCLTR[1], STRCLTR[2]),
        (MEMSTRESS[0], "gto", MEMSTRESS[1], MEMSTRESS[2]),
    )
    speedup_kernels = ("strcltr_mid",)

    def probes(self, ctx):
        from repro.core.cawa import apply_scheme
        from repro.errors import ConfigError
        from repro.experiments.runner import run_scheme
        from repro.trace import record_workload, replay_program

        out, attempted, notes = {}, 0, []
        workload, scale, num_sms = self.MEMSTRESS
        # replay_program takes the scheme as a label only; the config carries it.
        cfg = apply_scheme(self._config(num_sms), "gto")
        (recorded, program), _, _ = ctx.timed(
            "probe/record", lambda: record_workload(workload, scale=scale, config=cfg,
                                                    scheme="gto", seed=self.seed))

        def replay(variant):
            return replay_program(program, variant, scheme="gto")[-1]

        base, _, base_raw = ctx.timed("probe/replay/default", lambda: replay(cfg))
        variants = {
            "gpu.probe.skip_clock_speedup": lambda c: c.with_clock("skip"),
            "gpu.probe.vector_backend_speedup": lambda c: c.with_backend("vector"),
            "gpu.probe.stacked_speedup": lambda c: c.with_clock("skip").with_backend("vector"),
        }
        for metric, configure in variants.items():
            try:
                variant = configure(cfg)
            except (AttributeError, ConfigError):
                out[metric] = 0.0   # the knob no longer exists
                continue
            result, _, raw = ctx.timed(f"probe/replay/{metric}", lambda: replay(variant))
            out[metric] = base_raw / raw
            attempted += 1
            if sim_signature(result) != sim_signature(base):
                notes.append(f"{metric}: variant changed the simulated statistics")
        attempted += 1
        if sim_signature(base) != sim_signature(recorded):
            notes.append("probe: replay differs from the recorded execution")

        workload, scale, num_sms = self.STRCLTR
        trace_cfg = self._config(num_sms).with_frontend("trace")

        def sharded(shards):
            return run_scheme(workload, "gto", scale=scale, config=trace_cfg, shards=shards,
                              use_cache=False, persistent=False)

        try:
            sharded(1)   # records the trace into this workload's private store
            one, _, one_raw = ctx.timed("probe/shards/1", lambda: sharded(1))
            two, _, two_raw = ctx.timed("probe/shards/2", lambda: sharded(2))
        except (AttributeError, TypeError, ConfigError):
            out["gpu.sharded.shards2_speedup"] = 0.0
        else:
            out["gpu.sharded.shards2_speedup"] = one_raw / two_raw
            attempted += 1
            if sim_signature(one) != sim_signature(two):
                notes.append("shards=2 changed the simulated statistics")
        return out, attempted, notes


# ======================================================================
# sweep_store
# ======================================================================
class SweepStore(Workload):
    name = catalog.SWEEP
    WORKLOADS = ("bfs", "kmeans", "backprop", "needle")
    SCHEMES = ("rr", "gto", "gcaws", "cawa")
    SENS = ("bfs", "kmeans", "needle")
    SCALE = 0.25
    RESULT_WARM_PASSES = 50
    SAMPLED = "blocks:0.25"

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        rng = random.Random(seed)
        # The result cache refuses workload kwargs, so the seed orders the
        # grid instead: which scheme records each trace, and what follows what.
        self.workloads = rng.sample(self.WORKLOADS, len(self.WORKLOADS))
        self.schemes = rng.sample(self.SCHEMES, len(self.SCHEMES))
        self._ipc: Dict[Tuple[str, str], float] = {}
        self._sampling: Dict[str, float] = {}

    def _sweep(self, **kwargs):
        from repro.config import GPUConfig
        from repro.experiments.runner import run_sweep

        return run_sweep(self.workloads, self.schemes, scale=self.SCALE,
                         config=GPUConfig.default_sim().with_frontend("trace"), **kwargs)

    def run_pass(self, ctx: Ctx, index: int) -> List[Op]:
        pass_dir = tempfile.mkdtemp(prefix=f"pass{index}-", dir=self.cache_dir)
        self._use_cache_dir(pass_dir)
        try:
            with module_boundaries(ctx.tracer) if ctx.fine else contextlib.nullcontext():
                return self._phases(ctx, index)
        finally:
            self._use_cache_dir(self.cache_dir)
            shutil.rmtree(pass_dir, ignore_errors=True)

    def _phases(self, ctx: Ctx, index: int) -> List[Op]:
        from repro.experiments import result_cache, runner
        from repro.trace import store as trace_store

        # cold: record once per workload, replay the rest, write traces + results.
        try:
            cold, cold_s, cold_raw = ctx.timed("cold", self._sweep)
        except AssertionError as exc:
            return [Op("cold", 0.0, 0.0, 0, (), False, str(exc))]
        signature = tuple(sim_signature(cold[cell]) for cell in sorted(cold))
        winst = sum(r.warp_instructions for r in cold.values())

        # trace-warm: results dropped, memos invalidated: load + decode + replay.
        result_cache.clear()
        runner.clear_cache()
        for path in sorted(trace_store.trace_dir().glob("*")):
            info = path.stat()   # a new mtime is what another process's rewrite looks like
            os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns + 1000))
        warm, warm_s, warm_raw = ctx.timed("trace_warm", self._sweep)

        # result-warm: pure result-cache loads.
        def result_warm():
            for _ in range(self.RESULT_WARM_PASSES):
                runner.clear_cache()
                last = self._sweep()
            return last

        loaded, loaded_s, loaded_raw = ctx.timed("result_warm", result_warm)

        def agrees(results):
            # cycles / L1 misses / DRAM accesses per cell, as the issue fixes it.
            return all((results[c].cycles, results[c].l1_stats.misses, results[c].dram_accesses)
                       == (cold[c].cycles, cold[c].l1_stats.misses, cold[c].dram_accesses)
                       for c in cold)

        if index == 0:
            self._ipc = {cell: result.ipc for cell, result in cold.items()}
            stats, traces = result_cache.stats(), trace_store.stats()
            self.free = {
                "experiments.result_cache.bytes_per_entry": _ratio(stats["bytes"], stats["entries"]),
                "trace.bytes_per_winst": _ratio(
                    traces["bytes"], sum(cold[(w, self.schemes[0])].warp_instructions
                                         for w in self.workloads)),
            }
        ops = [
            Op("cold", cold_s, cold_raw, winst, signature, True),
            Op("trace_warm", warm_s, warm_raw, winst, signature, agrees(warm),
               "trace-warm sweep disagrees with the cold sweep"),
            Op("result_warm", loaded_s, loaded_raw, 0, signature, agrees(loaded),
               "result-warm sweep disagrees with the cold sweep"),
        ]
        if ctx.fine:
            # Fourth, traced-only phase: sampled replay on the warm trace store.
            sampled, _, sampled_raw = ctx.timed(
                "sampled", lambda: self._sweep(sampled=self.SAMPLED))
            self._sampling = {
                "sampling.sweep_s": sampled_raw,
                "sampling.speedup_vs_exact": warm_raw / sampled_raw,
                "sampling.max_rel_err": max(abs(sampled[c].cycles - cold[c].cycles) / cold[c].cycles
                                            for c in cold),
            }
        return ops

    def speedup_pairs(self):
        return [(self._ipc[(k, "rr")], self._ipc[(k, "cawa")]) for k in self.SENS]

    def per_layer(self, tracer):
        t = tracer.total
        out = dict(self.free)
        out.update(self._sampling)
        out["trace.store.store_program_s"] = t("trace.store.store_program")
        out["trace.store.load_program_s"] = t("trace.store.load_program")
        out["trace.replay_program_s"] = t("trace.replay_program")
        out["experiments.result_cache.store_ms"] = 1000.0 * _ratio(
            t("experiments.result_cache.store"), t("experiments.result_cache.store", "calls"))
        out["experiments.result_cache.load_ms"] = 1000.0 * _ratio(
            t("experiments.result_cache.load", cell="result_warm"),
            t("experiments.result_cache.load", "calls", cell="result_warm"))
        return out

    def probes(self, ctx):
        """Record and replay cost against plain execution, same four cells."""
        from repro.config import GPUConfig
        from repro.core.cawa import apply_scheme
        from repro.experiments.runner import run_scheme
        from repro.trace import record_workload, replay_program

        scheme = self.schemes[0]
        cfg = GPUConfig.default_sim()
        replay_cfg = apply_scheme(cfg, scheme)   # replay_program takes the scheme as a label only
        execute_s = record_s = replay_s = 0.0
        notes: List[str] = []
        for workload in self.workloads:
            plain, _, raw = ctx.timed(
                f"probe/execute/{workload}",
                lambda: run_scheme(workload, scheme, scale=self.SCALE, config=cfg,
                                   use_cache=False, persistent=False))
            execute_s += raw
            (_, program), _, raw = ctx.timed(
                f"probe/record/{workload}",
                lambda: record_workload(workload, scale=self.SCALE, config=cfg, scheme=scheme))
            record_s += raw
            replayed, _, raw = ctx.timed(
                f"probe/replay/{workload}",
                lambda: replay_program(program, replay_cfg, scheme=scheme)[-1])
            replay_s += raw
            if sim_signature(replayed) != sim_signature(plain):
                notes.append(f"probe: replay of {workload} x {scheme} differs from execution")
        return ({"trace.record_overhead_ratio": record_s / execute_s,
                 "trace.replay_speedup": execute_s / replay_s},
                len(self.workloads), notes)


# ======================================================================
# serve_mix
# ======================================================================
class ServeMix(Workload):
    """Closed loop, 2 client threads, rounds of 20 submissions.

    Every round sends the same four cells — {bfs, kmeans} x {rr, cawa} at
    scale 0.5, each about half a second of simulation — as *new* specs: the
    scale drops by 1e-6 per round, which changes the coalescing and cache
    keys but rounds to the same input sizes.  So rounds are the same work,
    a round's wall is a repeated measurement, and ``cawa_speedup`` does not
    depend on how many rounds fit.  The seed deals the four cells to the
    roles (client a's cold job, client b's, the two both clients submit at
    once) and picks the warm repeats.
    """

    name = catalog.SERVE
    #: Latencies here are poll sleeps and another process's work; neither
    #: scales with this thread's speed, so they are reported raw.
    corrected = False
    min_passes = 3
    CELLS = (("bfs", "rr"), ("bfs", "cawa"), ("kmeans", "rr"), ("kmeans", "cawa"))
    SCALE = 0.5
    WARM_PER_CLIENT = 7
    PER_ROUND = 2 + 2 * 2 + 2 * WARM_PER_CLIENT
    TIMEOUT = 120.0

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.rng = random.Random(seed)
        self.handle = None
        self.url = ""
        self.boot_s = self.stop_s = 0.0
        #: Specs each client has seen finish.  The two lists share nothing,
        #: so two warm repeats never meet in the queue and coalesce.
        self.finished: Dict[str, List[dict]] = {"a": [], "b": []}
        self.samples: List[dict] = []
        self.round_walls: List[float] = []
        self._lock = threading.Lock()

    def setup(self) -> None:
        from repro.serve import ServeClient, ServerConfig, ServerThread

        self.cache_dir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch)
        self._use_cache_dir(self.cache_dir)
        started = time.perf_counter()
        self.handle = ServerThread(ServerConfig(port=0, workers=1, cache_dir=self.cache_dir))
        self.handle.start()
        self.url = self.handle.base_url
        client = ServeClient(self.url, tenant="warmup")
        client.healthz()
        self.boot_s = time.perf_counter() - started
        workload, scheme, scale = WARMUP_CELL
        job, _ = client.submit({"kind": "run", "workload": workload, "scheme": scheme, "scale": scale})
        if client.wait(job["id"], timeout=self.TIMEOUT)["state"] != "done":
            raise RuntimeError("serve warm-up job did not finish")
        client.result(job["id"])
        self.finished = {"a": [], "b": []}

    def teardown(self) -> None:
        if self.handle is not None:
            started = time.perf_counter()
            self.handle.stop(drain=True)   # joins the server thread and its worker pool
            self.stop_s = time.perf_counter() - started
            self.handle = None
        super().teardown()

    # -- one round: 2 cold, 2 x 2 coalesced, 2 x 7 warm ----------------
    def run_pass(self, ctx: Ctx, index: int) -> List[Op]:
        scale = self.SCALE - 1e-6 * index
        specs = [{"kind": "run", "workload": w, "scheme": s, "scale": scale}
                 for w, s in self.rng.sample(self.CELLS, len(self.CELLS))]
        cold = {"a": specs[0], "b": specs[1]}
        shared = specs[2:]
        # Warm repeats come from specs this client has already seen finish,
        # this round's included (its cold job and one of the shared pair).
        mine = {"a": [cold["a"], shared[0]], "b": [cold["b"], shared[1]]}
        warm = {c: [self.rng.choice(self.finished[c] + mine[c])
                    for _ in range(self.WARM_PER_CLIENT)] for c in ("a", "b")}
        meet = threading.Barrier(2)
        ops: Dict[str, List[Op]] = {"a": [], "b": []}
        errors: List[BaseException] = []

        def client_loop(who):
            try:
                plan = ([("cold", cold[who])] + [("coalesced", spec) for spec in shared]
                        + [("warm", spec) for spec in warm[who]])
                for i, (kind, spec) in enumerate(plan):
                    if kind == "coalesced":
                        meet.wait(self.TIMEOUT)   # both clients submit it at once
                    ops[who].append(self._submit(f"{who}/{i}-{kind}", who, kind, spec, index))
            except BaseException as exc:   # re-raised on the main thread below
                errors.append(exc)
                meet.abort()

        already = len(self.samples)
        with ctx.tracer.span(f"round{index}") as round_span:
            threads = [threading.Thread(target=client_loop, args=(who,), name=f"client-{who}")
                       for who in ("a", "b")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(self.TIMEOUT * self.PER_ROUND)
        if errors:
            raise errors[0]
        self.round_walls.append(round_span["end"] - round_span["start"])
        for s in self.samples[already:]:
            ctx.tracer.add_span("serve_job", s["start"], s["end"], round_span["id"], cell=s["name"],
                                kind=s["kind"], coalesced=s["coalesced"])
        for c in ("a", "b"):
            self.finished[c] += mine[c]
        return ops["a"] + ops["b"]

    def _submit(self, name, who, kind, spec, round_index) -> Op:
        from repro.serve import ServeClient

        client = ServeClient(self.url, tenant=who)
        t0 = time.perf_counter()
        job, coalesced = client.submit(spec)
        t_submitted = time.perf_counter()
        status = client.wait(job["id"], timeout=self.TIMEOUT)
        response = client.result(job["id"]) if status["state"] == "done" else None
        held, t1 = time.time(), time.perf_counter()
        ok = response is not None
        result = response["payload"]["result"] if ok else {}
        sample = {
            "name": name, "kind": kind, "spec": spec, "round": round_index, "start": t0, "end": t1,
            "latency_s": t1 - t0, "submit_ms": 1000.0 * (t_submitted - t0),
            "coalesced": coalesced, "executed": not coalesced,
            "queue_wait_s": (status.get("started") or 0) - status["created"],
            "exec_s": (status.get("finished") or 0) - (status.get("started") or 0),
            "notify_lag_s": held - (status.get("finished") or held),
            "cycles": result.get("cycles"), "ipc": _ratio(result.get("thread_instructions", 0),
                                                          result.get("cycles", 0)),
        }
        with self._lock:
            self.samples.append(sample)
        stats = (result.get("cycles"), result.get("warp_instructions"),
                 (result.get("l1_stats") or {}).get("misses"), result.get("dram_accesses"))
        return Op(name, t1 - t0, t1 - t0, result.get("warp_instructions", 0), stats, ok,
                  f"job ended {status['state']}: {status.get('error')}")

    # -- results ---------------------------------------------------------
    def _first_round(self) -> Dict[Tuple[str, str], dict]:
        return {(s["spec"]["workload"], s["spec"]["scheme"]): s for s in self.samples
                if s["round"] == 0 and s["kind"] != "warm"}

    def speedup_pairs(self):
        cells = self._first_round()
        return [(cells[(w, "rr")]["ipc"], cells[(w, "cawa")]["ipc"]) for w in ("bfs", "kmeans")]

    def end_to_end(self, passes, timed_wall):
        latencies = [op.seconds for ops in passes for op in ops]
        wall = statistics.median(self.round_walls)
        pairs = self.speedup_pairs()
        self._free_metrics()
        return {
            "wall_s": wall,
            "sim_winst_per_s": sum(op.winst for op in passes[0]) / wall,
            "cawa_speedup": statistics.geometric_mean([cawa / rr for rr, cawa in pairs]),
            "job_latency_p50_s": nearest_rank(latencies, 0.5),
            "job_latency_p90_s": nearest_rank(latencies, 0.9),
            "jobs_per_s": self.PER_ROUND / wall,
        }

    def _free_metrics(self) -> None:
        def p50(key, kinds=None, executed=None):
            values = [s[key] for s in self.samples
                      if (kinds is None or s["kind"] in kinds)
                      and (executed is None or s["executed"] == executed)]
            return statistics.median(values) if values else 0.0

        self.free.update({
            "serve.boot_s": self.boot_s,
            "serve.submit_ms_p50": p50("submit_ms"),
            "serve.queue_wait_p50_s": p50("queue_wait_s", executed=True),
            "serve.exec_p50_s": p50("exec_s", kinds=("cold",)),
            "serve.notify_lag_p50_s": p50("notify_lag_s"),
            "serve.cold_latency_p50_s": p50("latency_s", kinds=("cold",)),
            "serve.coalesced_latency_p50_s": p50("latency_s", kinds=("coalesced",)),
            "serve.warm_latency_p50_s": p50("latency_s", kinds=("warm",)),
        })

    def check(self, passes):
        """Every job reaches ``done``; a cell returns the same cycles in every
        round and warm repeat; /stats agrees with what was sent; the first
        round's four cells return the cycles an in-process run gives."""
        from repro.config import GPUConfig
        from repro.experiments.runner import run_scheme
        from repro.serve import ServeClient

        attempted = failed = 0
        notes: List[str] = []
        first = self._first_round()
        for ops in passes:
            for op in ops:
                attempted += 1
                if not op.ok:
                    failed += 1
                    notes.append(f"{op.name}: {op.note}")
        for s in self.samples:
            reference = first.get((s["spec"]["workload"], s["spec"]["scheme"]))
            if reference is not None and s["cycles"] != reference["cycles"]:
                failed += 1
                notes.append(f"round {s['round']} {s['name']}: cycles {s['cycles']} != "
                             f"first round's {reference['cycles']}")
        rounds = len(passes)
        executed = 1 + (self.PER_ROUND - 2) * rounds   # + the warm-up job
        counters = ServeClient(self.url).stats()["counters"]
        expected = {"submitted": executed, "executions": executed, "coalesced": 2 * rounds,
                    "done": executed, "failed": 0}
        attempted += 1
        if any(counters.get(k) != v for k, v in expected.items()):
            failed += 1
            notes.append(f"/stats counters {counters} != expected {expected}")
        self.free["serve.coalesce_ratio"] = _ratio(
            counters.get("coalesced", 0), counters.get("submitted", 0) + counters.get("coalesced", 0))
        self.free["serve.executions"] = counters.get("executions", 0)

        for (workload, scheme), s in sorted(first.items()):
            attempted += 1
            local = run_scheme(workload, scheme, scale=s["spec"]["scale"],
                               config=GPUConfig.default_sim(), use_cache=False, persistent=False)
            if local.cycles != s["cycles"]:
                failed += 1
                notes.append(f"{workload} x {scheme}: served cycles {s['cycles']} != "
                             f"in-process {local.cycles}")
        return attempted, failed, notes

    def per_layer(self, tracer):
        self._free_metrics()
        return dict(self.free, **{"serve.stop_s": self.stop_s})


ALL = {cls.name: cls for cls in (NarrowFigs, WideMem, SweepStore, ServeMix)}
