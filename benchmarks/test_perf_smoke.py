"""Simulator-throughput smoke benchmark (host performance, not paper data).

Records **simulated cycles per host CPU second** on the bfs x cawa cell
(the ISSUE's reference cell), what recording once saves over recording per
cell (every launch is timed from a recording: a stored trace's, or one the
GPU makes in place) and what the functional pass costs against the replay
it feeds, all into pytest-benchmark's ``extra_info`` (``--benchmark-json``).
These are CI *gates* — each asserts its floor; the numbers tracked across
commits live in the performance ledger (``benchmarks/ledger/README.md``).
Two gates are not timings at all: profiled Python calls per replayed warp
instruction, and the functional pass's batched step count, which repeat
exactly and so need no quiet host.

Result caches are bypassed throughout — these measure simulation (or
trace replay), never the result cache.
"""

import os
import time
from pathlib import Path

import pytest

from conftest import run_once

from repro.experiments import profiling
from repro.experiments.runner import clear_cache

#: Smaller than BENCH_SCALE: throughput smoke, not a paper reproduction.
SCALE = 0.5


def _in_place(scheme, config, scale=SCALE, workload="bfs"):
    """One cell without the trace store: build the workload and launch it
    on a GPU handed no trace, which records each launch in place, times
    that recording and verifies it."""
    from repro import GPU
    from repro.core.cawa import apply_scheme
    from repro.experiments.runner import scheme_oracle
    from repro.workloads import make_workload

    cfg = apply_scheme(config, scheme)
    gpu = GPU(cfg, oracle=scheme_oracle(workload, scale, config, cfg))
    return make_workload(workload, scale=scale).run(gpu, scheme=scheme)


@pytest.mark.slow
def test_event_core_throughput(benchmark):
    clear_cache()
    result, seconds = run_once(
        benchmark, profiling.timed_run, "bfs", "cawa", scale=SCALE,
    )
    assert result.cycles > 0 and seconds > 0
    benchmark.extra_info["workload"] = "bfs"
    benchmark.extra_info["scheme"] = "cawa"
    benchmark.extra_info["simulated_cycles"] = result.cycles
    benchmark.extra_info["cycles_per_second"] = result.cycles / seconds


@pytest.mark.slow
def test_trace_replay_speedup(benchmark):
    """Replaying a warm in-memory trace vs a store-less cell on the
    reference cell.

    Both are timed from a recording; the store-less cell
    (``_in_place``) builds the workload, makes its own
    recording in place and verifies, so a replay is faster by what
    recording costs (~1.15x measured: the functional pass is about a
    quarter of a replay).  The
    bit-identical contract is the hard invariant; the ratio is recorded for
    tracking and only loosely asserted (CI machines vary, but a replay does
    strictly less work).
    """
    from repro import trace as trace_mod
    from repro.config import GPUConfig
    from repro.core.cawa import apply_scheme

    clear_cache()
    cfg = GPUConfig.default_sim()
    _, program = trace_mod.record_workload("bfs", scale=SCALE, config=cfg,
                                           scheme="cawa")

    def in_place_once():
        clear_cache()
        start = time.perf_counter()
        result = _in_place("cawa", cfg)
        return result, time.perf_counter() - start

    def replay_once():
        start = time.perf_counter()
        result = trace_mod.replay_program(
            program, apply_scheme(cfg, "cawa"), scheme="cawa"
        )[-1]
        return result, time.perf_counter() - start

    exec_result, exec_seconds = in_place_once()
    replay_result, replay_seconds = run_once(benchmark, replay_once)

    assert replay_result.cycles == exec_result.cycles
    assert replay_result.l1_stats.misses == exec_result.l1_stats.misses
    assert replay_result.dram_accesses == exec_result.dram_accesses
    speedup = exec_seconds / replay_seconds
    assert speedup > 1.0, (
        f"trace replay ({replay_seconds:.2f}s) should beat a cell that "
        f"records in place ({exec_seconds:.2f}s)"
    )
    benchmark.extra_info["workload"] = "bfs"
    benchmark.extra_info["scheme"] = "cawa"
    benchmark.extra_info["execute_seconds"] = exec_seconds
    benchmark.extra_info["replay_seconds"] = replay_seconds
    benchmark.extra_info["replay_speedup"] = speedup
    benchmark.extra_info["trace_id"] = program.trace_id


def _cold_cell_seconds(run, schemes):
    """CPU seconds for ``run(scheme)`` over ``schemes`` in a fresh cache
    directory (so the runner starts with a recording)."""
    import tempfile

    from repro.experiments import result_cache

    with tempfile.TemporaryDirectory() as scratch:
        result_cache.set_cache_dir(scratch)
        try:
            clear_cache()
            start = time.process_time()
            results = [run(scheme) for scheme in schemes]
            return time.process_time() - start, results
        finally:
            result_cache.set_cache_dir(None)


#: Floor on (three store-less cells) / (one recording + three replays) of
#: bfs @ 0.5.  With the pass at ~0.25 of a replay the ratio is
#: (3 x 1.25) / (0.25 + 3) = 1.15 before the default path's encode and
#: store; 1.12 measured (best of three, both sides).
SWEEP_FLOOR = 1.05


@pytest.mark.slow
def test_default_path_sweep_speedup(benchmark):
    """A sweep that records once beats one that records per cell: three
    schemes of bfs in a fresh cache, the default path (one functional pass,
    stored, three replays) against ``_in_place`` (three builds, three
    in-place passes, three verifications)."""
    from repro.config import GPUConfig
    from repro.experiments.runner import run_scheme

    default = GPUConfig.default_sim()
    schemes = ("rr", "gto", "cawa")
    paths = {
        "trace": lambda scheme: run_scheme(
            "bfs", scheme, scale=SCALE, config=default,
            use_cache=False, persistent=False),
        "execute": lambda scheme: _in_place(scheme, default),
    }

    def measure(repeats=3):
        best = {}
        for _ in range(repeats):
            for path, run in paths.items():
                seconds, results = _cold_cell_seconds(run, schemes)
                if seconds < best.get(path, (float("inf"),))[0]:
                    best[path] = (seconds, results)
        return best

    best = run_once(benchmark, measure)
    assert [r.recorded for r in best["trace"][1]] == [True, False, False]
    assert {r.frontend for r in best["trace"][1]} == {"trace"}
    assert {r.frontend for r in best["execute"][1]} == {"execute"}
    for ours, theirs in zip(best["trace"][1], best["execute"][1]):
        assert (ours.cycles, ours.l1_stats.misses, ours.dram_accesses) == (
            theirs.cycles, theirs.l1_stats.misses, theirs.dram_accesses)
    speedup = best["execute"][0] / best["trace"][0]
    benchmark.extra_info.update(
        {"workload": "bfs", "schemes": list(schemes), "scale": SCALE,
         "execute_seconds": best["execute"][0],
         "default_seconds": best["trace"][0], "speedup": speedup})
    assert speedup >= SWEEP_FLOOR, (
        f"default path {best['trace'][0]:.2f}s vs three store-less cells "
        f"{best['execute'][0]:.2f}s: {speedup:.2f}x is below the "
        f"{SWEEP_FLOOR}x floor"
    )


#: Profiled calls per replayed warp instruction on the budget cell
#: (bfs x gto at scale 0.5): 44.6 before the residency index / stored
#: readiness / ordered candidates / in-loop device heap, 26.5 after, 22.4
#: since the SM issues from the stream itself (no executor, stack or
#: readiness call per instruction), 17.9 since CPL's counter is derived
#: when read (no predictor call per instruction) and a warp ready next
#: cycle stays in its ready pool, 16.6 since an L1 hit no longer enters the
#: hierarchy and a warp memory instruction builds one request, 15.6 since
#: the MSHR file is one sorted list (no ``heapq.nsmallest``), a fill makes
#: one policy call and each LSU reuses one request, on CPython 3.11.  The
#: ceiling is that x 1.2: the margin covers interpreter differences (3.12
#: inlines comprehensions), not regressions — one more Python call per
#: instruction on the issue path is +1.0.
CALL_BUDGET = 18.8


@pytest.mark.slow
def test_hot_path_call_budget(benchmark):
    """Deterministic hot-path gate: the per-instruction path of a replay
    stays within its budget of Python calls, whatever the host is doing."""
    clear_cache()
    workload, scheme, scale = profiling.CALL_BUDGET_CELL
    calls, instructions = run_once(
        benchmark, profiling.replay_call_count, workload, scheme, scale=scale)
    again = profiling.replay_call_count(workload, scheme, scale=scale)
    assert again == (calls, instructions), "the count must repeat exactly"
    per_instruction = calls / instructions
    benchmark.extra_info.update(
        {"workload": workload, "scheme": scheme, "scale": scale,
         "profiled_calls": calls, "warp_instructions": instructions,
         "calls_per_instruction": per_instruction})
    assert per_instruction <= CALL_BUDGET, (
        f"{per_instruction:.1f} profiled calls per replayed warp instruction "
        f"({calls:,} / {instructions:,}) exceeds the budget of {CALL_BUDGET}"
    )


#: The functional pass of the budget cell's workload (bfs @ 0.5): batched
#: steps — a count, host-independent, 1,337 measured for 25,543 warp
#: instructions — and its cost against a replay of what it recorded
#: (0.24-0.25 measured).
PASS_STEP_BUDGET = 1600
PASS_REPLAY_RATIO = 0.35


@pytest.mark.slow
def test_functional_pass_budget(benchmark):
    """Recording stays a batched pass: few steps for many warp
    instructions, and a fraction of the replay it feeds."""
    import statistics

    from repro import trace as trace_mod
    from repro.config import GPUConfig
    from repro.core.cawa import apply_scheme

    clear_cache()
    workload, scheme, scale = profiling.CALL_BUDGET_CELL
    cfg = apply_scheme(GPUConfig.default_sim(), scheme)

    def measure(repeats=5):
        ratios = []
        for _ in range(repeats):
            start = time.process_time()
            program = trace_mod.record_program(workload, scale=scale, config=cfg)
            recorded = time.process_time()
            trace_mod.replay_program(program, cfg, scheme=scheme)
            ratios.append((recorded - start) / (time.process_time() - recorded))
        return program, statistics.median(ratios), ratios

    program, ratio, ratios = run_once(benchmark, measure)
    steps = program.meta["steps"]
    again = trace_mod.record_program(workload, scale=scale, config=cfg)
    assert again.meta["steps"] == steps, "the count must repeat exactly"
    benchmark.extra_info.update(
        {"workload": workload, "scale": scale, "steps": steps,
         "records": program.record_count,
         "warps_per_step": program.record_count / steps,
         "pass_over_replay": ratio, "ratios": ratios})
    assert steps <= PASS_STEP_BUDGET, (
        f"{steps:,} functional steps for {program.record_count:,} warp "
        f"instructions exceeds the budget of {PASS_STEP_BUDGET:,}: warps "
        "are no longer stepping together"
    )
    assert ratio <= PASS_REPLAY_RATIO, (
        f"the functional pass costs {ratio:.2f}x its replay (ceiling "
        f"{PASS_REPLAY_RATIO}x; repeats {[round(r, 2) for r in ratios]})"
    )


#: Ceiling on the median warm serve round trip, seconds.  1.9 ms measured
#: on a 2-vCPU box with the answer riding the submit response (one
#: request); 3.3 ms there, 1.3 ms on the older 2-vCPU box, when a repeat
#: answered at admission still took three requests over one kept-alive
#: connection; 6 ms when it went through a worker, one connection per
#: request; 107 ms while the client polled and the monitor slept.
SERVE_WARM_CEILING = 0.015
#: Ceiling on the median round trip of a repeat whose finished twin was
#: evicted, so it runs in a worker on a result-cache hit, seconds.  3.8 ms
#: measured on the 2-vCPU box.  The server polls progress every 0.5 s
#: there: with the monitor sleeping on that poll again it is ~500 ms.
SERVE_WORKER_CEILING = 0.040
SERVE_CELLS = tuple({"kind": "run", "workload": "synthetic_imbalance",
                     "scheme": scheme, "scale": 0.25} for scheme in ("rr", "gto"))


def _serve_round_trips(benchmark, tmp_path, cells, expected, **config):
    """Run each of ``cells`` once on a fresh server, then time submit ->
    wait -> result round trips cycling through them (one under
    pytest-benchmark, then 20), each on a fresh client and each required to
    cost ``expected`` ``(requests, connections)``.  Returns the median of
    the 20 and every round trip's submit response."""
    import itertools
    import statistics

    from repro.serve import ServeClient, ServerConfig, ServerThread

    handle = ServerThread(ServerConfig(
        port=0, workers=1, cache_dir=str(tmp_path / "cache"), **config)).start()
    server = handle.server
    submitted = []

    def round_trip(spec):
        before = server.requests, server.connections
        started = time.perf_counter()
        with ServeClient(handle.base_url) as client:
            job, _ = client.submit(spec)
            state = client.wait(job["id"], timeout=60)["state"]
            client.result(job["id"])
        seconds = time.perf_counter() - started
        assert state == "done"
        assert (server.requests - before[0],
                server.connections - before[1]) == expected
        submitted.append(job)
        return seconds

    try:
        with ServeClient(handle.base_url) as client:
            for spec in cells:
                cold, _ = client.submit(spec)
                assert client.wait(cold["id"], timeout=120)["state"] == "done"
        cycle = itertools.cycle(cells)
        run_once(benchmark, lambda: round_trip(next(cycle)))
        median = statistics.median(round_trip(next(cycle)) for _ in range(20))
    finally:
        handle.stop()
    benchmark.extra_info.update({"round_trip_median_s": median,
                                 "repeats": len(submitted)})
    return median, submitted


@pytest.mark.slow
def test_serve_warm_round_trip(benchmark, tmp_path):
    """A finished cell is answered at the cost of a lookup: submit -> wait
    -> result of a repeat is one HTTP request (the answer rides the submit
    response), and the repeat is born done from its finished twin."""
    median, submitted = _serve_round_trips(benchmark, tmp_path,
                                           SERVE_CELLS[:1], (1, 1))
    twins = {job["reused_from"] for job in submitted}
    assert len(twins) == 1 and None not in twins
    assert {job["state"] for job in submitted} == {"done"}
    assert median < SERVE_WARM_CEILING, (
        f"median warm round trip {1e3 * median:.1f} ms >= "
        f"{1e3 * SERVE_WARM_CEILING:.0f} ms: a repeat no longer answers at "
        "admission, or a connection is opened per request"
    )


@pytest.mark.slow
def test_serve_worker_round_trip(benchmark, tmp_path):
    """A repeat that is not reused — one finished job kept, two cells taking
    turns, so each repeat's twin was evicted — goes through a worker on a
    result-cache hit and its monitor hands it off without waiting for the
    next progress poll."""
    median, submitted = _serve_round_trips(
        benchmark, tmp_path, SERVE_CELLS, (3, 1), keep_finished=1,
        progress_poll=0.5)
    assert {job["reused_from"] for job in submitted} == {None}
    assert median < SERVE_WORKER_CEILING, (
        f"median worker round trip {1e3 * median:.1f} ms >= "
        f"{1e3 * SERVE_WORKER_CEILING:.0f} ms: something on the worker's "
        "hand-off path waits on a timer again"
    )


@pytest.mark.slow
def test_events_disabled_overhead(benchmark):
    """The disabled observability path must stay near-free.

    With ``events='off'`` every probe site is one ``if self.obs is not
    None`` pointer test; the acceptance criterion is that the disabled run
    costs no more than 2% over the *enabled* run's wall time (i.e. the
    off path must never pay recording costs).  The on/off overhead ratio
    is recorded for tracking.
    """
    from repro.config import GPUConfig

    def best_of(events_spec, repeats=3):
        # Recorded in place on both sides: the probes under test sit on the
        # issue path either way, and the runner would record the first
        # repeat and replay the rest.
        cfg = GPUConfig.default_sim().with_events(events_spec)
        best = float("inf")
        result = None
        for _ in range(repeats):
            clear_cache()
            start = time.process_time()
            result = _in_place("cawa", cfg)
            best = min(best, time.process_time() - start)
        return result, best

    def measure():
        off_result, off_seconds = best_of("off")
        on_result, on_seconds = best_of("on")
        return off_result, off_seconds, on_result, on_seconds

    off_result, off_seconds, on_result, on_seconds = run_once(benchmark, measure)
    # Recording must not perturb timing (the parity suite pins the full
    # grid; this is the smoke-level tripwire).
    assert off_result.cycles == on_result.cycles
    assert on_result.extra["events_recorded"] > 0
    assert "events_recorded" not in off_result.extra

    overhead = on_seconds / off_seconds if off_seconds > 0 else 0.0
    payload = {
        "workload": "bfs",
        "scheme": "cawa",
        "scale": SCALE,
        "off_seconds": off_seconds,
        "on_seconds": on_seconds,
        "off_cycles_per_second": (
            off_result.cycles / off_seconds if off_seconds > 0 else 0.0
        ),
        "on_cycles_per_second": (
            on_result.cycles / on_seconds if on_seconds > 0 else 0.0
        ),
        "recording_overhead": overhead,
        "events_recorded": on_result.extra["events_recorded"],
    }
    benchmark.extra_info.update(payload)
    assert off_seconds <= on_seconds * 1.02, (
        f"disabled-events run ({off_seconds:.2f}s) more than 2% slower than "
        f"the recording run ({on_seconds:.2f}s): the off path is paying "
        "observability costs"
    )


@pytest.mark.slow
def test_events_chrome_artifact(tmp_path):
    """Record the reference cell and write its Chrome trace for CI upload.

    The artifact lands at ``EVENTS_bfs_cawa.trace.json`` (override with
    ``EVENTS_TRACE_PATH``); CI attaches it so any commit's warp timeline
    can be opened in https://ui.perfetto.dev without rerunning anything.
    """
    import json as _json

    from repro.obs import record_events, write_chrome_trace

    clear_cache()
    _result, bus = record_events("bfs", "cawa", scale=SCALE)
    events = bus.events()
    assert events

    default = Path(__file__).resolve().parent.parent / "EVENTS_bfs_cawa.trace.json"
    out = Path(os.environ.get("EVENTS_TRACE_PATH", default))
    path = write_chrome_trace(events, out)
    doc = _json.loads(path.read_text(encoding="utf-8"))
    assert doc["traceEvents"], "empty Chrome trace artifact"
    assert any(e.get("ph") == "X" for e in doc["traceEvents"])
