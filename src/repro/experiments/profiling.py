"""Performance instrumentation for simulator runs.

Backs ``python -m repro profile`` and ``tools/profile_run.py``: wall-clock
timing (best-of-N, cache-bypassed) plus optional cProfile hot-spot listings,
and a side-by-side comparison of one bit-identical engine knob's values
(:func:`compare`: the device clocks).  The headline throughput metric
is **simulated cycles per host second**, which is what the perf-regression
smoke benchmark tracks; :func:`replay_call_count` is its deterministic
companion — profiled Python calls per replayed warp instruction, which
repeats exactly on any host.
"""

from __future__ import annotations

import cProfile
import dataclasses
import io
import pstats
import sys
import time
from typing import Any, Dict, Optional, Sequence, TextIO, Tuple

from .. import trace as trace_mod
from ..config import GPUConfig
from ..core.cawa import apply_scheme
from ..stats.counters import RunResult
from . import runner

#: The cell whose :func:`replay_call_count` ``benchmarks/test_perf_smoke.py``
#: gates and ``repro profile`` prints: ``(workload, scheme, scale)``.
CALL_BUDGET_CELL = ("bfs", "gto", 0.5)


def timed_run(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
) -> Tuple[RunResult, float]:
    """Run one cell with every cache bypassed; return (result, seconds).

    Uses CPU time (``process_time``) so measurements are stable on loaded
    machines.
    """
    cfg = config or GPUConfig.default_sim()
    start = time.process_time()
    result = runner.run_scheme(
        workload, scheme, scale=scale, config=cfg,
        use_cache=False, persistent=False,
    )
    return result, time.process_time() - start


def throughput(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    repeats: int = 3,
) -> Dict[str, float]:
    """Best-of-``repeats`` throughput for one cell.

    Returns ``{"cycles", "seconds", "cycles_per_second"}``.
    """
    best = float("inf")
    cycles = 0.0
    for _ in range(repeats):
        result, seconds = timed_run(workload, scheme, scale, config)
        cycles = result.cycles
        if seconds < best:
            best = seconds
    return {
        "cycles": cycles,
        "seconds": best,
        "cycles_per_second": cycles / best if best > 0 else 0.0,
    }


def stall_breakdown(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    n: int = 3,
):
    """Top-``n`` stall reasons for one cell as ``(name, cycles, share)``.

    One events-on run through :func:`repro.obs.harness.record_stalls`;
    ``share`` is the fraction of total warp-cycles (issue + all stalls),
    the paper's Fig 2c denominator.  Stall attribution is identical across
    device clocks (the event stream is part of the bit-identical timing
    contract), so one recording serves every column of a comparison.
    """
    from ..obs.harness import record_stalls

    _result, acct = record_stalls(workload, scheme, scale=scale, config=config)
    return acct.top_reasons(n)


def _component_of(filename: str) -> str:
    """Map a profiled filename onto a coarse simulator component.

    ``repro`` sources aggregate by subpackage (``repro.sm``,
    ``repro.memory``, ...); everything else (stdlib, numpy) lands in
    ``other``.
    """
    marker = "repro" + ("/" if "/" in filename else "\\")
    idx = filename.rfind(marker)
    if idx < 0:
        return "other"
    parts = filename[idx:].replace("\\", "/").split("/")
    if len(parts) >= 3:
        return f"repro.{parts[1]}"
    return "repro"


def _component_breakdown(profiler: cProfile.Profile) -> Dict[str, float]:
    """Aggregate a profile's self-time (tottime) by simulator component."""
    stats = pstats.Stats(profiler)
    totals: Dict[str, float] = {}
    for (filename, _lineno, _func), entry in stats.stats.items():
        tottime = entry[2]
        comp = _component_of(filename)
        totals[comp] = totals.get(comp, 0.0) + tottime
    return totals


def _profiled_run(
    workload: str, scheme: str, scale: float, config: Optional[GPUConfig],
) -> Tuple[RunResult, float, cProfile.Profile]:
    """One cache-bypassed run under cProfile: (result, CPU seconds, profile)."""
    profiler = cProfile.Profile()
    profiler.enable()
    result, seconds = timed_run(workload, scheme, scale, config)
    profiler.disable()
    return result, seconds, profiler


def replay_call_count(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
) -> Tuple[int, int]:
    """``(profiled calls, warp instructions)`` of one replayed cell.

    Every call cProfile sees over :func:`repro.trace.replay_program` alone
    (the trace is loaded, or recorded, beforehand, and replayed once
    unprofiled: a kernel's decode records are built at first touch).  A
    count, not a time:
    it repeats exactly run to run and host to host, so calls per
    instruction is a hot-path regression gauge that needs no quiet
    machine.  It moves with the interpreter (3.12 inlines comprehensions).

    Summed over the profiler's own entries: ``pstats`` keys functions by
    ``(file, line, name)``, under which every dataclass ``__init__``
    (``<string>:2``) collides and all but an arbitrary one are dropped, so
    ``pstats.Stats.total_calls`` is neither the whole count nor stable.
    """
    cfg = config or GPUConfig.default_sim()
    program = runner.load_or_record_program(workload, scheme, scale, cfg)
    run_cfg = apply_scheme(cfg, scheme)
    trace_mod.replay_program(program, run_cfg, scheme=scheme)
    profiler = cProfile.Profile()
    profiler.enable()
    result = trace_mod.replay_program(program, run_cfg, scheme=scheme)[-1]
    profiler.disable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    return calls, result.warp_instructions


def compare(
    workload: str,
    scheme: str,
    knob: str,
    values: Sequence[str],
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Measure one cell under each of ``values`` of config field ``knob``.

    ``knob`` is meant to be a bit-identical engine knob (``clock``):
    results are equal across its values by contract
    (``tests/test_skip_clock_parity.py``), so the comparison is purely
    about where the host time goes.  For each value: best-of-``repeats``
    CPU throughput plus one profiled run, which supplies the skip-clock
    provenance (``cycles_skipped``/``skip_jumps``) and a per-component
    self-time breakdown (``repro.sm``, ``repro.memory``, ...).  The
    returned dict maps each value to ``{"throughput", "components"}`` and
    carries ``"speedup"`` (first value's CPU time over the last's — how much
    the last value wins), ``"component_delta"`` (per-component self time,
    ``last - first`` seconds, negative = the last value spends less there)
    and the cell's top-3 ``"stalls"``.
    """
    base = config or GPUConfig.default_sim()
    report: Dict[str, Any] = {}
    for value in values:
        cfg = dataclasses.replace(base, **{knob: value})
        tp = throughput(workload, scheme, scale, cfg, repeats)
        result, _seconds, profiler = _profiled_run(workload, scheme, scale, cfg)
        tp["cycles_skipped"] = result.cycles_skipped
        tp["skip_jumps"] = float(result.skip_jumps)
        report[value] = {
            "throughput": tp,
            "components": _component_breakdown(profiler),
        }
    first, last = report[values[0]], report[values[-1]]
    last_s = last["throughput"]["seconds"]
    report["speedup"] = first["throughput"]["seconds"] / last_s if last_s > 0 else 0.0
    first_comp, last_comp = first["components"], last["components"]
    report["component_delta"] = {
        comp: last_comp.get(comp, 0.0) - first_comp.get(comp, 0.0)
        for comp in sorted(set(first_comp) | set(last_comp))
    }
    report["stalls"] = stall_breakdown(workload, scheme, scale, base)
    return report


def profile_run(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    sort: str = "cumulative",
    top: int = 25,
    stream: Optional[TextIO] = None,
) -> Tuple[RunResult, float]:
    """cProfile one cell and print the ``top`` hottest entries to ``stream``."""
    out = stream if stream is not None else sys.stdout
    result, seconds, profiler = _profiled_run(workload, scheme, scale, config)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    print(buffer.getvalue(), file=out)
    cps = result.cycles / seconds if seconds > 0 else 0.0
    print(
        f"{workload} x {scheme}: "
        f"{result.cycles:.0f} cycles in {seconds:.2f}s CPU "
        f"-> {cps:,.0f} cycles/s",
        file=out,
    )
    calls, instructions = replay_call_count(*CALL_BUDGET_CELL)
    print(
        "call budget ({} x {} @ {}, replayed): {:,} profiled calls / {:,} "
        "warp instructions = {:.1f} per instruction".format(
            *CALL_BUDGET_CELL, calls, instructions, calls / instructions),
        file=out,
    )
    return result, seconds
