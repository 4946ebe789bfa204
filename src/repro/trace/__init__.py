"""repro.trace — the trace-driven simulation frontend.

Record a workload's functional side once (per-warp dynamic instruction
streams: PCs, active masks, branch outcomes, coalesced memory lines), then
replay timing-only sweeps through the unchanged SM pipeline at a fraction
of the cost — no register files, no lane math, no functional verification.

See ``docs/trace_driven.md`` for the design, file format, invalidation
keys, and the (narrow) conditions under which replay is *not* valid.

Typical use is implicit — on a trace miss ``run_scheme`` runs the
functional pass (:mod:`repro.trace.functional`: no SM, caches or clock),
stores the trace and replays it, and replays thereafter, unless the config
says ``with_frontend("execute")`` — but the pieces are public::

    from repro.trace import TraceRecorder, TraceProgram, replay_program
    from repro.trace import record_program, record_workload

    result, program = record_workload("bfs", scale=0.5)   # record + replay
    program.save("bfs.trace")
    replayed = replay_program(TraceProgram.load("bfs.trace"), scheme="cawa")
"""

from .format import (
    TRACE_FORMAT_VERSION,
    TRACE_MAGIC,
    LaunchTrace,
    TraceInfo,
    TraceProgram,
    WarpStream,
    kernel_fingerprint,
)
from .recorder import (
    TraceRecorder,
    record_program,
    record_workload,
    replay_recorded,
)
from .replay import replay_program
from .store import (
    clear,
    list_traces,
    load_program,
    store_program,
    trace_dir,
    trace_path,
)

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TRACE_MAGIC",
    "LaunchTrace",
    "TraceInfo",
    "TraceProgram",
    "TraceRecorder",
    "WarpStream",
    "clear",
    "kernel_fingerprint",
    "list_traces",
    "load_program",
    "record_program",
    "record_workload",
    "replay_recorded",
    "replay_program",
    "store_program",
    "trace_dir",
    "trace_path",
]
