"""Performance instrumentation for simulator runs.

Backs ``python -m repro profile`` (``make profile``): one
cache-bypassed run under cProfile — its hot-spot listing and simulated
cycles per CPU second — plus :func:`replay_call_count`, profiled Python
calls per replayed warp instruction: a deterministic hot-path gauge that
repeats exactly on any host.  The perf-regression smoke benchmark times
:func:`timed_run` and gates the call count.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
import time
from typing import Optional, TextIO, Tuple

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


def profile_run(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    sort: str = "cumulative",
    top: int = 25,
    stream: Optional[TextIO] = None,
) -> Tuple[RunResult, float]:
    """cProfile one cell and print the ``top`` hottest entries to ``stream``,
    then its throughput and the call budget."""
    out = stream if stream is not None else sys.stdout
    profiler = cProfile.Profile()
    profiler.enable()
    result, seconds = timed_run(workload, scheme, scale, config)
    profiler.disable()
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
