"""The ledger's metric and workload catalogue.

``BENCHMARK.json`` carries what the driver's schema has room for (name,
unit, direction, bound); this table adds what it has not: the layer each
per-layer metric belongs to, which workload's traced run measures it,
whether it is host or simulated time, and which end-to-end metric on
which workload it should move.  ``run.py --list`` prints it and
``test_ledger.py`` checks the two stay in step.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

NARROW, WIDE, SWEEP, SERVE = "narrow_figs", "wide_mem", "sweep_store", "serve_mix"
ALL = (NARROW, WIDE, SWEEP, SERVE)
SIM = (NARROW, WIDE)

WORKLOADS = {
    NARROW: "2-SM default device, the figures' grid at half size: scheduler select, "
            "issue/scoreboard, executor and CPL dominate; device loop and memory do little",
    WIDE: "64- and 160-SM memory-stalled cells: the per-cycle SM sweep, wake scans and "
          "L2/DRAM queueing dominate while per-instruction work is small",
    SWEEP: "trace-frontend sweep in a private cache, cold then trace-warm then result-warm: "
           "trace encode/decode, result cache and fslock, writes beside reads",
    SERVE: "in-process server, closed loop of 2 clients mixing cold, coalesced and warm jobs: "
           "admission, queue, coalescing, hand-off and notification; simulator does little",
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    time: str          # "host", "simulated" or "memory"
    definition: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, "host",
             "median of 3 set-ups: private cache dir, warm-up cell (bfs x rr, scale 1.0), "
             "server boot on serve_mix"),
    EndToEnd("wall_s", "s", "lower", 0.25, "host",
             "wall time of one pass over the workload's operations: sum over operations of "
             "the median over passes (serve_mix: median wall of a 20-submission round)"),
    EndToEnd("sim_winst_per_s", "1/s", "higher", 0.25, "host",
             "simulated warp instructions in the results one pass delivers / wall_s"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, "memory",
             "ru_maxrss of the process plus that of its reaped children"),
    EndToEnd("cawa_speedup", "ratio", "higher", 0.05, "simulated",
             "geomean of IPC(cawa)/IPC(rr) over the workload's kernels run under both; "
             "repeats exactly for one seed"),
    EndToEnd("job_latency_p50_s", "s", "lower", 0.15, "host",
             "nearest-rank median over the workload's operations (a run_scheme call, a "
             "run_sweep phase, a serve submission); a repeated operation enters once, "
             "with its median"),
    EndToEnd("job_latency_p90_s", "s", "lower", 0.25, "host",
             "same, 90th percentile: the slowest cells, the cold sweep, the cold jobs"),
    EndToEnd("jobs_per_s", "1/s", "higher", 0.25, "host",
             "operations in one pass / wall_s (serve_mix: a round's 20 submissions / wall_s)"),
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    workloads: Tuple[str, ...]   # whose traced run measures it (0 elsewhere)
    time: str                    # "host", "simulated", "count", "bytes"
    moves: str                   # end-to-end metric @ workload it should move
    definition: str


def _self(name, layer_workloads, moves, what):
    return PerLayer(name, "s", "lower", layer_workloads, "host", moves,
                    f"wrapper self time of {what}, summed over the traced pass")


def _calls(name, layer_workloads, moves, what):
    return PerLayer(name, "count", "lower", layer_workloads, "count", moves,
                    f"calls of {what} in the traced pass (exact)")


_CORE = "wall_s, sim_winst_per_s @ narrow_figs; job_latency_p90_s @ sweep_store"
_LOOP = "wall_s, sim_winst_per_s @ wide_mem"
_MEM = "wall_s @ wide_mem (strcltr cells), narrow_figs (~15%)"
_NONE = "nothing: simulated, repeats exactly"

PER_LAYER: Tuple[PerLayer, ...] = (
    # ---- gpu -----------------------------------------------------------
    PerLayer("gpu.build_s", "s", "lower", SIM, "host", _LOOP,
             "GPU(cfg) construction, summed over the traced pass"),
    _self("gpu.launch.self_s", SIM, _LOOP, "gpu.launch (the device loop itself)"),
    _calls("gpu.launch.calls", SIM, _LOOP, "gpu.launch"),
    PerLayer("gpu.sim_cycles", "cycles", "lower", SIM, "simulated", _NONE,
             "simulated cycles summed over one pass"),
    PerLayer("gpu.sim_cycles_per_s", "1/s", "higher", SIM, "host", _LOOP,
             "simulated cycles per host second, untraced half"),
    PerLayer("gpu.cycles_skipped_share", "ratio", "higher", SIM, "simulated", _LOOP,
             "cycles_skipped / cycles over one pass (base: simulated cycles)"),
    PerLayer("gpu.probe.skip_clock_speedup", "ratio", "higher", (WIDE,), "host", _LOOP,
             "memstress replay wall(default)/wall(clock=skip); 0 when the knob is gone"),
    PerLayer("gpu.probe.vector_backend_speedup", "ratio", "higher", (WIDE,), "host", _LOOP,
             "memstress replay wall(default)/wall(backend=vector); 0 when the knob is gone"),
    PerLayer("gpu.probe.stacked_speedup", "ratio", "higher", (WIDE,), "host", _LOOP,
             "memstress replay wall(default)/wall(skip+vector); 0 when a knob is gone"),
    PerLayer("gpu.sharded.shards2_speedup", "ratio", "higher", (WIDE,), "host", _LOOP,
             "strcltr_mid@64 replay wall(shards=1)/wall(shards=2): 3 processes on 2 cores, noisy"),
    # ---- sm ------------------------------------------------------------
    _self("sm.tick.self_s", SIM, _CORE + "; " + _LOOP, "sm.tick (issue, scoreboard, wake heaps)"),
    _calls("sm.tick.calls", SIM, _LOOP, "sm.tick"),
    PerLayer("sm.tick.useful_ratio", "ratio", "higher", SIM, "count", _LOOP,
             "ticks that issued / sm.tick.calls"),
    _self("sm.next_wake_time.self_s", SIM, _LOOP, "sm.next_wake_time"),
    _calls("sm.next_wake_time.calls", SIM, _LOOP, "sm.next_wake_time"),
    _self("sm.lsu.issue.self_s", SIM, _MEM, "lsu.issue (coalescing and the line walk)"),
    _calls("sm.lsu.issue.calls", SIM, _MEM, "lsu.issue"),
    PerLayer("sm.lsu.lines_per_access", "ratio", "lower", SIM, "simulated", _NONE,
             "line accesses / sm.lsu.issue.calls"),
    # ---- scheduling ----------------------------------------------------
    _self("scheduling.select.self_s", SIM, _CORE, "scheduler.select"),
    _calls("scheduling.select.calls", SIM, _CORE, "scheduler.select"),
    PerLayer("scheduling.select.declined_ratio", "ratio", "lower", SIM, "count", _CORE,
             "selects that returned None / scheduling.select.calls"),
    _self("scheduling.notify_issue.self_s", SIM, _CORE, "scheduler.notify_issue"),
    # ---- core ----------------------------------------------------------
    _self("core.cpl.on_issue.self_s", SIM, _CORE, "cpl.on_issue"),
    _self("core.cpl.on_branch.self_s", SIM, _CORE, "cpl.on_branch"),
    _calls("core.cpl.calls", SIM, _CORE, "cpl.on_issue + cpl.on_branch"),
    _self("core.cacp.choose_way.self_s", SIM, _MEM, "CACPPolicy.choose_way"),
    _calls("core.cacp.choose_way.calls", SIM, _MEM, "CACPPolicy.choose_way"),
    # ---- simt ----------------------------------------------------------
    _self("simt.executor.execute.self_s", SIM, _CORE, "executor.execute"),
    _calls("simt.executor.execute.calls", SIM, _CORE, "executor.execute"),
    # ---- memory --------------------------------------------------------
    _self("memory.hierarchy.access.self_s", SIM, _MEM, "hierarchy.access (MSHR walk)"),
    _calls("memory.hierarchy.access.calls", SIM, _MEM, "hierarchy.access"),
    _self("memory.cache.l1d.access.self_s", SIM, _MEM, "l1d.access"),
    PerLayer("memory.cache.l1d.hit_ratio", "ratio", "higher", SIM, "simulated", _NONE,
             "L1D hits / accesses over one pass"),
    PerLayer("memory.l1d_mpki", "1/kinst", "lower", SIM, "simulated", _NONE,
             "L1D misses per 1000 thread instructions over one pass"),
    _self("memory.l2.access.self_s", SIM, _MEM, "l2.access (bank queue + inner cache)"),
    _calls("memory.l2.access.calls", SIM, _MEM, "l2.access"),
    PerLayer("memory.l2.hit_ratio", "ratio", "higher", SIM, "simulated", _NONE,
             "L2 hits / accesses over one pass"),
    _self("memory.dram.access.self_s", SIM, _MEM, "dram.access"),
    _calls("memory.dram.access.calls", SIM, _MEM, "dram.access"),
    # ---- workloads -----------------------------------------------------
    PerLayer("workloads.build_s", "s", "lower", SIM, "host", "wall_s @ narrow_figs, wide_mem",
             "make_workload + Workload.build (inputs, kernel), summed over the traced pass"),
    PerLayer("workloads.verify_s", "s", "lower", SIM, "host", "wall_s @ narrow_figs, wide_mem",
             "LaunchSpec.verify against the NumPy reference, summed over the traced pass"),
    # ---- trace ---------------------------------------------------------
    PerLayer("trace.record_overhead_ratio", "ratio", "lower", (SWEEP,), "host",
             "job_latency_p90_s @ sweep_store",
             "wall(record_workload) / wall(plain execute), same four cells"),
    PerLayer("trace.store.store_program_s", "s", "lower", (SWEEP,), "host",
             "job_latency_p90_s @ sweep_store", "repro.trace.store_program, traced pass"),
    PerLayer("trace.store.load_program_s", "s", "lower", (SWEEP,), "host",
             "job_latency_p50_s @ sweep_store", "repro.trace.load_program, traced pass"),
    PerLayer("trace.replay_program_s", "s", "lower", (SWEEP,), "host",
             "job_latency_p50_s @ sweep_store", "repro.trace.replay_program, traced pass"),
    PerLayer("trace.replay_speedup", "ratio", "higher", (SWEEP,), "host",
             "job_latency_p50_s @ sweep_store",
             "wall(plain execute) / wall(replay_program), same four cells"),
    PerLayer("trace.bytes_per_winst", "B", "lower", (SWEEP,), "bytes",
             "job_latency_p50_s, job_latency_p90_s @ sweep_store",
             "trace store bytes / warp instructions recorded"),
    # ---- experiments ---------------------------------------------------
    PerLayer("experiments.result_cache.store_ms", "ms", "lower", (SWEEP,), "host",
             "job_latency_p90_s @ sweep_store", "mean result_cache.store per entry, traced pass"),
    PerLayer("experiments.result_cache.load_ms", "ms", "lower", (SWEEP,), "host",
             "wall_s @ sweep_store; job_latency_p50_s @ serve_mix",
             "mean result_cache.load per hit in the result-warm phase, traced pass"),
    PerLayer("experiments.result_cache.bytes_per_entry", "B", "lower", (SWEEP,), "bytes",
             "wall_s @ sweep_store", "result cache bytes / entries after the sweep"),
    # ---- sampling ------------------------------------------------------
    PerLayer("sampling.sweep_s", "s", "lower", (SWEEP,), "host", "none (traced pass only)",
             "run_sweep(sampled='blocks:0.25') on the warm trace store"),
    PerLayer("sampling.speedup_vs_exact", "ratio", "higher", (SWEEP,), "host",
             "none (traced pass only)", "trace-warm sweep wall / sampled sweep wall"),
    PerLayer("sampling.max_rel_err", "ratio", "lower", (SWEEP,), "simulated", _NONE,
             "max over cells of |sampled cycles - exact cycles| / exact cycles"),
    # ---- obs / feedback --------------------------------------------------
    PerLayer("obs.on_overhead_ratio", "ratio", "lower", (NARROW,), "host",
             "none (events are off in every timed region)",
             "wall(record_events) / wall(plain run), bfs x cawa"),
    PerLayer("obs.events_per_winst", "ratio", "lower", (NARROW,), "count",
             "none", "events emitted / warp instructions, bfs x cawa"),
    PerLayer("feedback.tap_overhead_ratio", "ratio", "lower", (NARROW,), "host",
             "none (taps are unarmed in every timed region)",
             "wall(record_signals) / wall(plain run), bfs x gto"),
    PerLayer("feedback.signals_per_winst", "ratio", "lower", (NARROW,), "count",
             "none", "signals published / warp instructions, bfs x gto"),
    # ---- serve ---------------------------------------------------------
    PerLayer("serve.boot_s", "s", "lower", (SERVE,), "host", "setup_s @ serve_mix",
             "ServerThread.start until /healthz answers"),
    PerLayer("serve.submit_ms_p50", "ms", "lower", (SERVE,), "host",
             "job_latency_p50_s, jobs_per_s @ serve_mix", "median ServeClient.submit round trip"),
    PerLayer("serve.queue_wait_p50_s", "s", "lower", (SERVE,), "host",
             "job_latency_p90_s @ serve_mix", "median started - created over executed jobs"),
    PerLayer("serve.exec_p50_s", "s", "lower", (SERVE,), "host",
             "job_latency_p90_s @ serve_mix", "median finished - started over cold jobs"),
    PerLayer("serve.notify_lag_p50_s", "s", "lower", (SERVE,), "host",
             "job_latency_p50_s, jobs_per_s @ serve_mix",
             "median (client holds the result) - finished"),
    PerLayer("serve.cold_latency_p50_s", "s", "lower", (SERVE,), "host",
             "job_latency_p90_s @ serve_mix", "median latency of first-time unique jobs"),
    PerLayer("serve.coalesced_latency_p50_s", "s", "lower", (SERVE,), "host",
             "job_latency_p90_s @ serve_mix", "median latency of jobs both clients submit at once"),
    PerLayer("serve.warm_latency_p50_s", "s", "lower", (SERVE,), "host",
             "job_latency_p50_s @ serve_mix", "median latency of repeats of finished specs"),
    PerLayer("serve.coalesce_ratio", "ratio", "higher", (SERVE,), "count",
             "job_latency_p90_s @ serve_mix", "coalesced joins / submissions (/stats counters)"),
    PerLayer("serve.executions", "count", "lower", (SERVE,), "count",
             "wall_s @ serve_mix", "/stats executions: jobs handed to a worker"),
    PerLayer("serve.stop_s", "s", "lower", (SERVE,), "host", "none (after the timed region)",
             "ServerThread.stop(drain=True)"),
    # ---- bench ---------------------------------------------------------
    PerLayer("bench.import_s", "s", "lower", ALL, "host", "none (before set-up)",
             "one-off import of repro and the runner"),
    PerLayer("bench.trace_overhead_ratio", "ratio", "lower", ALL, "host", "none",
             "traced pass wall / untraced pass wall, same operations back to back"),
    PerLayer("bench.accounted_share", "ratio", "higher", ALL, "host", "none",
             "(layer self times + coarse spans' own remainders) / traced pass wall"),
    PerLayer("bench.cpu_share", "ratio", "higher", ALL, "host", "none",
             "process CPU time / wall over the untraced pass; < 0.9 on a simulator "
             "workload means the box, not the program, was slow"),
    PerLayer("bench.host_speed", "ratio", "lower", ALL, "host", "none",
             "mean calibration slice / nominal over the untraced pass (1.0 = reference host "
             "state; raw seconds = nominal-speed seconds x this)"),
)

