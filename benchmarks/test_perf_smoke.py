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
    (``with_frontend("execute")``) builds the workload, makes its own
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
    from repro.experiments.runner import run_scheme

    clear_cache()
    cfg = GPUConfig.default_sim()
    _, program = trace_mod.record_workload("bfs", scale=SCALE, config=cfg,
                                           scheme="cawa")

    def in_place_once():
        clear_cache()
        start = time.perf_counter()
        result = run_scheme("bfs", "cawa", scale=SCALE,
                            config=cfg.with_frontend("execute"),
                            use_cache=False, persistent=False)
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


def _cold_cell_seconds(config, schemes=("rr",), scale=1.0):
    """CPU seconds for ``schemes`` of bfs through ``run_scheme`` in a fresh
    cache directory (so a default config starts with a recording)."""
    import tempfile

    from repro.experiments import result_cache
    from repro.experiments.runner import run_scheme

    with tempfile.TemporaryDirectory() as scratch:
        result_cache.set_cache_dir(scratch)
        try:
            clear_cache()
            start = time.process_time()
            results = [run_scheme("bfs", scheme, scale=scale, config=config,
                                  use_cache=False, persistent=False)
                       for scheme in schemes]
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
    stored, three replays) against ``with_frontend("execute")`` (three
    builds, three in-place passes, three verifications)."""
    from repro.config import GPUConfig

    default = GPUConfig.default_sim()
    schemes = ("rr", "gto", "cawa")

    def measure(repeats=3):
        best = {}
        for _ in range(repeats):
            for cfg in (default, default.with_frontend("execute")):
                seconds, results = _cold_cell_seconds(cfg, schemes, scale=SCALE)
                if seconds < best.get(cfg.frontend, (float("inf"),))[0]:
                    best[cfg.frontend] = (seconds, results)
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
#: cycle stays in its ready pool, on CPython 3.11.  The ceiling is that
#: x 1.2: the margin covers interpreter differences (3.12 inlines
#: comprehensions), not regressions — one more Python call per
#: instruction on the issue path is +1.0.
CALL_BUDGET = 21.4


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


#: Ceiling on the median warm serve round trip, seconds.  6 ms measured on
#: the 2-vCPU box; 107 ms while the client polled and the monitor slept.
SERVE_WARM_CEILING = 0.040


@pytest.mark.slow
def test_serve_warm_round_trip(benchmark, tmp_path):
    """A finished cell is answered at the cost of a lookup: submit -> wait
    -> result on a result-cache hit is three HTTP requests and no sleep."""
    import statistics

    from repro.serve import ServeClient, ServerConfig, ServerThread

    spec = {"kind": "run", "workload": "synthetic_imbalance",
            "scheme": "rr", "scale": 0.25}
    handle = ServerThread(ServerConfig(
        port=0, workers=1, cache_dir=str(tmp_path / "cache"))).start()
    try:
        client = ServeClient(handle.base_url)
        cold, _ = client.submit(spec)
        assert client.wait(cold["id"], timeout=120)["state"] == "done"

        def round_trip():
            before = handle.server.requests
            started = time.perf_counter()
            job, _ = client.submit(spec)
            state = client.wait(job["id"], timeout=60)["state"]
            client.result(job["id"])
            seconds = time.perf_counter() - started
            assert state == "done"
            return seconds, handle.server.requests - before

        run_once(benchmark, round_trip)
        samples = [round_trip() for _ in range(20)]
    finally:
        handle.stop()
    median = statistics.median(seconds for seconds, _ in samples)
    benchmark.extra_info.update({"warm_round_trip_median_s": median,
                                 "repeats": len(samples)})
    assert {requests for _, requests in samples} == {3}
    assert median < SERVE_WARM_CEILING, (
        f"median warm round trip {1e3 * median:.1f} ms >= "
        f"{1e3 * SERVE_WARM_CEILING:.0f} ms: something on the hand-off "
        "path waits on a timer again"
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
    from repro.experiments.runner import run_scheme

    def best_of(events_spec, repeats=3):
        # Executed on both sides: the probes under test sit on the issue
        # path either way, and a default config would record the first
        # repeat and replay the rest.
        cfg = (GPUConfig.default_sim().with_frontend("execute")
               .with_events(events_spec))
        best = float("inf")
        result = None
        for _ in range(repeats):
            clear_cache()
            start = time.process_time()
            result = run_scheme("bfs", "cawa", scale=SCALE, config=cfg,
                                use_cache=False, persistent=False)
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
