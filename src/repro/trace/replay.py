"""Replay half of the trace-driven frontend.

Replay feeds recorded per-warp streams through the *unchanged* SM issue
core, scoreboard, LSU, caches, and DRAM.  Three small adapters make the
existing timing machinery consume a trace instead of executing lanes:

:class:`TraceStack`
    Duck-types :class:`~repro.simt.stack.SIMTStack` for the pipeline's
    consumption: ``pc`` and ``active_mask`` hold the current trace
    record, and every control-flow mutation (``advance``, ``diverge``,
    ``kill_lanes``) simply moves the cursor and reads the next record —
    the recorded stream already linearizes divergence exactly as the
    reconvergence stack did at record time.

:class:`TraceWarp`
    A :class:`~repro.simt.warp.Warp` whose stack is a :class:`TraceStack`.
    Everything else — scoreboard, scheduling cache, criticality counters,
    stall accounting — is inherited unchanged, which is what makes replay
    bit-identical: the timing state machine never notices the frontend swap.

:class:`TraceExecutor`
    Drop-in for :class:`~repro.simt.executor.FunctionalExecutor` that
    answers from the current record (branch outcome, memory effect mask and
    pre-coalesced line addresses) instead of computing lane values.  No
    register file reads/writes, no numpy lane math, no coalescing — the
    source of replay's speedup.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Optional, Tuple

from ..config import GPUConfig
from ..errors import TraceFormatError
from ..isa.instructions import IssueKind
from ..simt.executor import NO_EFFECT, ExecResult
from ..simt.warp import Warp
from .format import NO_LINES, LaunchTrace, TraceProgram, WarpStream


_K_LOAD = int(IssueKind.LOAD)
_K_STORE = int(IssueKind.STORE)
_K_BRANCH = int(IssueKind.BRANCH)
_RETIRED_AUX: "array[int]" = array("Q")


class TraceStack:
    """Trace-cursor stand-in for the SIMT reconvergence stack.

    The two columns every issue reads are materialised as plain lists when
    the warp is created and dropped when it retires, so replay's resident
    memory follows the resident warps, not the length of the program.
    ``pc`` / ``active_mask`` are plain attributes holding the current
    record, refreshed by whichever mutation moves the cursor (the issue
    path reads them several times per instruction and moves the cursor
    once).  The aux column is read in place: it is consumed once, in
    order, and only a memory record's line addresses ever become Python
    objects.
    """

    __slots__ = ("pc", "active_mask", "_pcs", "_masks", "_aux", "_idx",
                 "_aux_pos", "_len", "_block_id", "_warp_id")

    def __init__(self, stream: WarpStream, block_id: int, warp_id: int) -> None:
        if not len(stream):
            raise TraceFormatError("warp trace has no records")
        self._pcs: List[int] = stream.pcs.tolist()
        self._masks: List[int] = stream.masks.tolist()
        self._aux = stream.aux
        self._len = len(self._pcs)
        self._idx = 0
        self._aux_pos = 0
        #: Whose stream this is, for error messages only.
        self._block_id = block_id
        self._warp_id = warp_id
        #: The current record: what the pipeline reads.
        self.pc: int = self._pcs[0]
        self.active_mask: int = self._masks[0]

    @property
    def empty(self) -> bool:
        """True once the final (terminal EXIT) record has been consumed."""
        return self._idx >= self._len

    @property
    def depth(self) -> int:  # pragma: no cover - debugging parity only
        return 0 if self.empty else 1

    # -- the current record's aux payload, consumed in issue order -----
    def take_taken_mask(self) -> int:
        pos = self._aux_pos
        self._aux_pos = pos + 1
        return self._aux[pos]

    def take_memory(self) -> Tuple[int, Optional[List[int]]]:
        """``(mem_mask, lines)``; ``lines`` is ``None`` for an access
        without line addresses (shared space, fully predicated off)."""
        aux = self._aux
        pos = self._aux_pos
        count = aux[pos + 1]
        if count == NO_LINES:
            self._aux_pos = pos + 2
            return aux[pos], None
        end = pos + 2 + count
        if end > len(aux):
            raise IndexError(end)
        self._aux_pos = end
        return aux[pos], aux[pos + 2:end].tolist()

    # -- control-flow mutations: all advance the cursor ----------------
    def advance(self, next_pc: int) -> None:
        idx = self._idx = self._idx + 1
        try:
            self.pc = self._pcs[idx]
        except IndexError:
            # Only an EXIT may be a stream's last record: the warp is
            # still running and there is nothing left for it to issue.
            raise TraceFormatError(
                f"warp stream (block={self._block_id}, warp={self._warp_id}) "
                f"has no record {idx}: it ends without its terminal EXIT; "
                "trace is corrupt"
            ) from None
        self.active_mask = self._masks[idx]

    def diverge(self, taken_pc: int, fallthrough_pc: int, taken_mask: int,
                reconv_pc: int) -> None:
        self.advance(fallthrough_pc)

    def kill_lanes(self, mask: int) -> None:
        idx = self._idx + 1
        if idx < self._len:
            self.advance(self._pcs[idx])
            return
        # Retired: results keep their warps, which must not keep the
        # lists (or pin the program's aux column) alive.
        self._idx = idx
        self._pcs = self._masks = []
        self._aux = _RETIRED_AUX

    def active_lane_count(self) -> int:
        return self.active_mask.bit_count()


class TraceWarp(Warp):
    """A warp that follows a recorded dynamic stream instead of executing."""

    def __init__(self, stream: WarpStream, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.stack = TraceStack(stream, self.block.block_id, self.warp_id_in_block)


class TraceExecutor:
    """Answers issue-time queries from the warp's current trace record."""

    def execute(self, inst: Any, warp: Any) -> ExecResult:
        kind = inst.decoded.kind
        if kind == _K_LOAD or kind == _K_STORE:
            try:
                mem_mask, lines = warp.stack.take_memory()
            except IndexError:
                raise TraceFormatError(
                    f"memory record at pc={inst.pc} is missing its address "
                    "payload; trace is corrupt"
                ) from None
            return ExecResult(mem_mask=mem_mask, mem_lines=lines)
        if kind == _K_BRANCH:
            if inst.pred is None:
                return ExecResult(taken_mask=warp.stack.active_mask)
            try:
                return ExecResult(taken_mask=warp.stack.take_taken_mask())
            except IndexError:
                raise TraceFormatError(
                    f"branch record at pc={inst.pc} is missing its taken "
                    "mask; trace is corrupt"
                ) from None
        return NO_EFFECT


def make_warp_factory(launch: LaunchTrace) -> Any:
    """Warp factory for one launch: builds :class:`TraceWarp` objects.

    Installed on each SM by :meth:`repro.gpu.GPU.launch` when the GPU was
    handed a trace.  Streams are shared read-only, so one loaded trace can
    feed many concurrent replays.
    """

    def factory(*, warp_id_in_block: int, block: Any, **kwargs: Any) -> TraceWarp:
        stream = launch.stream_for(block.block_id, warp_id_in_block)
        return TraceWarp(
            stream, warp_id_in_block=warp_id_in_block, block=block, **kwargs
        )

    return factory


def replay_program(
    program: TraceProgram,
    config: Optional[GPUConfig] = None,
    scheme: str = "",
    oracle: Optional[dict] = None,
    max_cycles: float = 5e7,
    observers: Optional[list] = None,
    l1_observers: Optional[list] = None,
    bus=None,
    feedback_tap=None,
):
    """Replay every launch of ``program``; returns the list of results.

    The kernel and launch geometry come from the trace itself, so replay
    needs no workload rebuild (and performs no functional verification —
    there are no computed values to verify).  ``observers`` join each SM's
    ``issue_observers``; ``l1_observers`` join each L1D's observer list.
    ``bus`` is an optional :class:`repro.obs.bus.EventBus` the replay wires
    in place of the config-built one (callers attach collectors first).
    ``feedback_tap`` is an optional :class:`repro.feedback.SignalTap`
    recording every published feedback signal.
    """
    from ..gpu import GPU  # local: avoid a gpu <-> trace import cycle

    gpu = GPU(config or GPUConfig.default_sim(), oracle=oracle,
              max_cycles=max_cycles, trace=program, obs=bus)
    if feedback_tap is not None:
        from ..feedback.channel import attach_signal_tap

        attach_signal_tap(gpu, feedback_tap)
    for observer in observers or ():
        for sm in gpu.sms:
            sm.issue_observers.append(observer)
    for observer in l1_observers or ():
        for sm in gpu.sms:
            sm.l1d.observers.append(observer)
    results = []
    for launch in program.launches:
        results.append(
            gpu.launch(launch.kernel, launch.grid_dim, launch.block_dim, scheme=scheme)
        )
    return results
