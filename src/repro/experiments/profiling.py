"""Where a replay spends its host time.

Backs ``python -m repro profile`` (``make profile``): one cell's warm
replays under a ``SIGPROF`` stack sampler, reported as shares per host
layer (by module path, :data:`LAYERS`) and per function, then cycles per
CPU second and :func:`replay_call_count` — profiled Python calls per
replayed warp instruction, a hot-path gauge that repeats exactly on any
host.  The perf-regression smoke benchmark times :func:`timed_run` and
gates the call count.
"""

from __future__ import annotations

import cProfile
import functools
import signal
import time
from collections import Counter
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from .. import trace as trace_mod
from ..config import GPUConfig
from ..core.cawa import apply_scheme
from ..stats.counters import RunResult
from . import runner

#: The cell whose :func:`replay_call_count` ``benchmarks/test_perf_smoke.py``
#: gates and ``repro profile`` prints: ``(workload, scheme, scale)``.
CALL_BUDGET_CELL = ("bfs", "gto", 0.5)

#: CPU seconds between samples asked (the kernel may deliver the timer
#: only at its scheduler tick: 4 ms at 250 Hz; the report prints both).
INTERVAL_S = 1e-3
#: A report replays its cell (once at least) until this much CPU is sampled.
SAMPLED_CPU_S = 1.0

#: Host layer of each module prefix; the longest prefix of a sample's
#: module wins, and code outside these packages is ``other``.  Keyed by
#: module, not function, so a deleted function's samples still land in
#: its module's layer.
LAYERS = {
    "repro.scheduling": "select",
    "repro.sm": "issue/scoreboard",
    "repro.simt": "issue/scoreboard",
    "repro.sm.lsu": "LSU",
    "repro.core": "CPL",
    "repro.core.cacp": "L1/MSHR",
    "repro.core.ccbp": "L1/MSHR",
    "repro.memory": "L1/MSHR",
    "repro.memory.l2": "L2/DRAM",
    "repro.memory.dram": "L2/DRAM",
    "repro.gpu": "device loop",
    "repro.trace": "decode",
    "repro.obs": "dispatch",
    "repro.feedback": "dispatch",
}

_PACKAGE = Path(__file__).resolve().parent.parent


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


def warm_replay(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
) -> Callable[[], List[RunResult]]:
    """A function replaying the cell's stored trace once per call.

    The trace is loaded (or recorded) and replayed once here, unmeasured,
    so a kernel's decode records are built before the caller measures.
    Each call returns :func:`repro.trace.replay_program`'s per-launch
    results; the last is the cell's.
    """
    cfg = config or GPUConfig.default_sim()
    program = runner.load_or_record_program(workload, scheme, scale, cfg)
    replay = functools.partial(trace_mod.replay_program, program,
                               apply_scheme(cfg, scheme), scheme=scheme)
    replay()
    return replay


def replay_call_count(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
) -> Tuple[int, int]:
    """``(profiled calls, warp instructions)`` of one replayed cell.

    Every call cProfile sees over one :func:`warm_replay` call.  A count,
    not a time: it repeats exactly run to run and host to host, so calls
    per instruction is a hot-path regression gauge that needs no quiet
    machine.  It moves with the interpreter (3.12 inlines comprehensions).

    Summed over the profiler's own entries: ``pstats`` keys functions by
    ``(file, line, name)``, under which every dataclass ``__init__``
    (``<string>:2``) collides and all but an arbitrary one are dropped, so
    ``pstats.Stats.total_calls`` is neither the whole count nor stable.
    """
    replay = warm_replay(workload, scheme, scale, config)
    profiler = cProfile.Profile()
    profiler.enable()
    result = replay()[-1]
    profiler.disable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    return calls, result.warp_instructions


def _relative(code) -> Optional[Path]:
    """``code``'s file relative to ``src/repro``; None outside it."""
    path = Path(code.co_filename).resolve()
    return path.relative_to(_PACKAGE) if _PACKAGE in path.parents else None


def module_of(code) -> Optional[str]:
    """Dotted name of the ``repro`` module ``code`` belongs to, or None."""
    path = _relative(code)
    if path is None:
        return None
    parts = ("repro", *path.with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def layer_of(module: Optional[str]) -> str:
    """The :data:`LAYERS` name of ``module``; ``other`` outside them."""
    while module:
        if module in LAYERS:
            return LAYERS[module]
        module = module.rpartition(".")[0]
    return "other"


def where(code) -> str:
    """``package/module.py:qualname``, relative to ``src/repro``."""
    path = _relative(code) or Path(Path(code.co_filename).name)
    return f"{path.as_posix()}:{getattr(code, 'co_qualname', code.co_name)}"


class StackSampler:
    """Counts self and inclusive samples per code object under SIGPROF.

    An ``ITIMER_PROF`` timer interrupts the process every ``interval_s``
    of CPU time.  Each interrupt charges its sample to the function
    running (*self*) and once to every function on the stack
    (*inclusive*).  Python runs signal handlers between bytecodes, so a C
    call is charged to the Python function that made it, and a sample
    costs one short stack walk, where cProfile's per-call hooks nearly
    triple a replay.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples = 0
        self.self_counts: Counter = Counter()
        self.inclusive_counts: Counter = Counter()

    def _on_signal(self, signum, frame) -> None:
        if frame is None:
            return
        self.samples += 1
        self.self_counts[frame.f_code] += 1
        seen = set()
        while frame is not None:
            code = frame.f_code
            if code not in seen:  # a recursive function counts once
                seen.add(code)
                self.inclusive_counts[code] += 1
            frame = frame.f_back

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def layer_shares(self) -> List[Tuple[str, float]]:
        """Every layer's share of self samples, largest first."""
        counts = Counter(dict.fromkeys([*LAYERS.values(), "other"], 0))
        for code, count in self.self_counts.items():
            counts[layer_of(module_of(code))] += count
        return [(layer, n / (self.samples or 1)) for layer, n in counts.most_common()]

    def function_shares(self) -> List[Tuple[str, float, float]]:
        """``(function, self share, inclusive share)``, hottest first."""
        rows: dict = {}
        for code, count in self.inclusive_counts.items():
            row = rows.setdefault(where(code), [0, 0])
            row[0] += self.self_counts.get(code, 0)
            row[1] += count
        total = self.samples or 1
        return sorted(((name, s / total, i / total) for name, (s, i) in rows.items()),
                      key=lambda row: (-row[1], -row[2], row[0]))


def profile(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    top: int = 25,
) -> None:
    """Sample the cell's warm replays and print where their CPU went:
    layer shares, the ``top`` hottest functions, cycles per CPU second,
    and the call budget."""
    replay = warm_replay(workload, scheme, scale, config)
    sampler = StackSampler()
    replays, cycles = 0, 0.0
    start = time.process_time()
    with sampler:
        while not replays or time.process_time() - start < SAMPLED_CPU_S:
            cycles += replay()[-1].cycles
            replays += 1
    seconds = time.process_time() - start
    print(f"{workload} x {scheme} @ {scale}: {sampler.samples:,} samples over "
          f"{replays} replays ({1e3 * INTERVAL_S:g} ms asked, "
          f"{1e3 * seconds / max(sampler.samples, 1):.1f} ms taken)\n")
    print(f"{'layer':<58} {'self':>7}")
    for layer, share in sampler.layer_shares():
        print(f"{layer:<58} {100 * share:>6.1f}%")
    print(f"\n{'function':<58} {'self':>7} {'incl':>7}")
    for name, self_share, inclusive_share in sampler.function_shares()[:top]:
        print(f"{name:<58} {100 * self_share:>6.1f}% {100 * inclusive_share:>6.1f}%")
    print(f"\n{workload} x {scheme}: {cycles:.0f} cycles in {seconds:.2f}s CPU "
          f"-> {cycles / seconds if seconds > 0 else 0.0:,.0f} cycles/s")
    calls, instructions = replay_call_count(*CALL_BUDGET_CELL)
    print("call budget ({} x {} @ {}, replayed): {:,} profiled calls / {:,} "
          "warp instructions = {:.1f} per instruction".format(
              *CALL_BUDGET_CELL, calls, instructions, calls / instructions))
