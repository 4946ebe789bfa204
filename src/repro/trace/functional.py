"""The functional pass: one launch's per-warp streams, no timing model.

Recording needs each warp's dynamic stream — PCs, active masks, branch
outcomes, coalesced memory lines — and nothing about *when* anything
happens, so it runs without an SM, a scheduler, caches or a clock.  All
``W`` warps of a launch share one ``(num_regs, W, warp_size)`` register
bank and one ``(num_preds, W, warp_size)`` predicate bank, and every step
executes **one static instruction for every runnable warp sitting at the
lowest PC**: one NumPy call over ``(G, warp_size)`` where the issue path
made ``G`` calls over ``warp_size``.

Batching decides only *which warps step together*.  Each warp keeps its own
reconvergence stack — the top entry in arrays (``pc`` / ``mask`` / ``lanes``
/ ``reconv``), the entries under it in a per-warp list — and moves through
it exactly as the per-warp reference stack (``tests/reference/stack.py``)
does: ``advance`` with its reconvergence pops, ``diverge``, ``kill_lanes``.
Block barriers and EXIT-releases-a-barrier follow
:class:`repro.simt.block.ThreadBlock`, per-block shared memory the
reference executor.  A warp's record sequence is
therefore the one the reference's ``FunctionalExecutor`` + ``SIMTStack``
produce (``tests/test_trace_functional.py``), and since no warp reads what
another warp writes between barriers (the property :class:`_RaceCheck`
enforces while the pass runs) it cannot depend on who it shared a step
with.  Opcode semantics are not restated here: value instructions run the
closures of :func:`repro.isa.semantics.bind_compute` over the group's rows.

Records go to a step log that is scattered into the v2 per-warp columns
(:class:`~repro.trace.format.WarpStream`) by a stable sort every few
thousand records, so the transient log stays a few hundred KB whatever the
launch size.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import DeadlockError, SimulationError, TraceInvarianceError
from ..isa.instructions import MemSpace, Opcode, Special
from ..isa.semantics import bind_compute
from ..memory.data import GlobalMemory
from ..simt.mask import bools_from_mask
from .format import NO_LINES, LaunchTrace, WarpStream

#: Reconvergence PC of a stack's base entry (never popped by PC match).
NO_RECONV = -1
#: ``pc`` of a warp that cannot step: parked at a barrier, or finished.
_PARKED = np.iinfo(np.int64).max
#: Line address of an inactive lane: sorts past every real line.
_NO_LINE = np.iinfo(np.int64).max
#: The step log is scattered into the per-warp columns at this many records.
_FLUSH_RECORDS = 4096
#: A launch still stepping after this many steps is a runaway kernel (the
#: timing model's ``max_cycles`` says the same of 5e7 cycles, and a caller
#: with a cycle budget hands :func:`record_launch` the smaller cap that
#: budget implies).
MAX_STEPS = 50_000_000

# An access's identity in _RaceCheck: ``block << 44 | generation << 24 |
# row``, so keys order by block first and ``key >> _GEN_SHIFT`` compares
# (block, barrier generation) pairs.
_GEN_SHIFT = 24
_BLOCK_SHIFT = 44
_ROW_MASK = (1 << _GEN_SHIFT) - 1
_GEN_LIMIT = 1 << (_BLOCK_SHIFT - _GEN_SHIFT)
_NO_ACCESS = -1
_NO_READER = np.iinfo(np.int64).max

#: ``step(rows, sel)``: one static instruction for one group of warps.
Step = Callable[[np.ndarray, object], None]


class _Rows:
    """``bank[r]`` narrowed to the current group: what
    :func:`bind_compute`'s closures index as ``rf.regs[r]`` / ``rf.preds[p]``."""

    __slots__ = ("bank", "sel")

    def __init__(self, bank: np.ndarray) -> None:
        self.bank = bank
        self.sel: object = slice(None)

    def __getitem__(self, index: int) -> np.ndarray:
        return self.bank[index, self.sel]


class _Group:
    """The operand access :func:`bind_compute`'s closures are written
    against, answered for every warp of the current group at once."""

    __slots__ = ("regs", "preds", "_specials", "sel")

    def __init__(self, regs: np.ndarray, preds: np.ndarray,
                 specials: Dict[Special, np.ndarray]) -> None:
        self.regs = _Rows(regs)
        self.preds = _Rows(preds)
        self._specials = specials
        self.sel: object = slice(None)

    def select(self, sel: object) -> None:
        self.sel = self.regs.sel = self.preds.sel = sel

    def special_values(self, special: Special) -> np.ndarray:
        return self._specials[special][self.sel]


class _RaceCheck:
    """Schedule-invariance as a property checked while the pass runs.

    Replaying one recording under every scheme is sound only if no warp's
    stream depends on another warp's timing.  Per global word this keeps
    the last writer and the extremes (smallest and largest key) of the
    readers since it, and refuses a load of a word another warp stored, or
    a store to a word another warp loaded, unless both warps are in one
    block and a barrier of that block separates the two accesses.  Stores
    meeting stores are not judged (bfs writes one value from many threads
    on purpose), and shared memory is not watched.

    The two reader extremes are enough.  Readers in two blocks: whichever
    block a writer is in, one extreme is outside it.  Readers in one block:
    a read at a newer barrier generation restarts the pair (older readers
    are behind a barrier for every later access of that block, and an
    access from another block conflicts with the new reader as well), so
    the pair spans one generation and differs only when two warps read.
    """

    def __init__(self, words: int, kernel_name: str, warps_per_block: int) -> None:
        self._writer = np.full(words, _NO_ACCESS, dtype=np.int64)
        self._reader_min = np.full(words, _NO_READER, dtype=np.int64)
        self._reader_max = np.full(words, _NO_ACCESS, dtype=np.int64)
        self._kernel_name = kernel_name
        self._warps_per_block = warps_per_block
        #: Set at the first barrier release: until then every access is at
        #: generation 0 and no reader pair ever restarts.
        self.barrier_released = False

    @staticmethod
    def _separated(earlier: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Same block, and a barrier of it between ``earlier`` and now."""
        return ((earlier >> _BLOCK_SHIFT == keys >> _BLOCK_SHIFT)
                & (earlier >> _GEN_SHIFT < keys >> _GEN_SHIFT))

    def load(self, pc: int, words: np.ndarray, keys: np.ndarray) -> None:
        """``keys[i]`` loads ``words[i]`` (keys ascending, as a group's
        lanes are)."""
        writer = self._writer[words]
        if writer.max() != _NO_ACCESS:
            raced = ((writer != _NO_ACCESS) & ((writer ^ keys) & _ROW_MASK != 0)
                     & ~self._separated(writer, keys))
            if raced.any():
                at = int(np.flatnonzero(raced)[0])
                self._refuse(pc, "loads", "stored", words[at], keys[at], writer[at])
        newest = self._reader_max[words]
        if (newest != keys).any():
            oldest = self._reader_min[words]
            low = np.minimum(oldest, keys)
            high = np.maximum(newest, keys)
            if self.barrier_released:
                # Every reader so far is of this block and behind a barrier
                # of it: restart the pair (``high`` is ``keys`` already).
                block = keys >> _BLOCK_SHIFT
                restart = ((oldest >> _BLOCK_SHIFT == block)
                           & (newest >> _BLOCK_SHIFT == block)
                           & (newest >> _GEN_SHIFT < keys >> _GEN_SHIFT))
                low = np.where(restart, keys, low)
            # Several lanes may name one word; keys ascend, so the last
            # assignment is the largest and, reversed, the smallest (the
            # last-one-wins order GlobalMemory.store relies on as well).
            self._reader_max[words] = high
            self._reader_min[words[::-1]] = low[::-1]

    def store(self, pc: int, words: np.ndarray, keys: np.ndarray) -> None:
        """``keys[i]`` stores to ``words[i]``."""
        newest = self._reader_max[words]
        if newest.max() != _NO_ACCESS:
            oldest = self._reader_min[words]
            raced = ((newest != _NO_ACCESS)
                     & ~(self._separated(oldest, keys) & self._separated(newest, keys))
                     & ((oldest != newest) | ((newest ^ keys) & _ROW_MASK != 0)))
            if raced.any():
                at = int(np.flatnonzero(raced)[0])
                other = newest[at]
                if (other ^ keys[at]) & _ROW_MASK == 0 or self._separated(
                        other[None], keys[at:at + 1])[0]:
                    other = oldest[at]
                self._refuse(pc, "stores to", "loaded", words[at], keys[at], other)
            self._reader_max[words] = _NO_ACCESS
            self._reader_min[words] = _NO_READER
        self._writer[words] = keys

    def _refuse(self, pc: int, does: str, did: str, word, key, other) -> None:
        def warp(k) -> str:
            block, index = divmod(int(k) & _ROW_MASK, self._warps_per_block)
            return f"warp {index} of block {block}"

        raise TraceInvarianceError(
            f"kernel {self._kernel_name!r} pc={pc}: {warp(key)} {does} the word "
            f"at address {int(word) * 8:#x} that {warp(other)} {did} in the "
            "same launch with no barrier of a shared block between the two "
            "accesses, so its stream depends on warp timing and a recording "
            "cannot stand for every scheme; nothing was recorded or timed "
            "(separate the two accesses with a barrier, or split the launch)"
        )


class _Pass:
    """One launch's functional pass (see the module docstring)."""

    def __init__(self, kernel, grid_dim: int, block_dim: int,
                 memory: GlobalMemory, warp_size: int, line_size: int,
                 max_steps: int) -> None:
        self.kernel = kernel
        self.memory = memory
        self.warp_size = warp_size
        self.line_size = line_size
        self.max_steps = max_steps
        wpb = self.warps_per_block = (block_dim + warp_size - 1) // warp_size
        count = self.count = grid_dim * wpb
        if count > _ROW_MASK or grid_dim >= 1 << (62 - _BLOCK_SHIFT):
            raise SimulationError(
                f"a launch of {grid_dim} blocks / {count} warps is larger "
                "than the functional pass can record"
            )
        self.grid_dim = grid_dim
        self.block_dim = block_dim
        row = np.arange(count, dtype=np.int64)
        self.block_of = row // wpb

        self.regs = np.zeros((kernel.num_regs, count, warp_size), dtype=np.float64)
        self.preds = np.zeros((kernel.num_preds, count, warp_size), dtype=bool)
        lane = np.arange(warp_size, dtype=np.float64)
        block = self.block_of[:, None].astype(np.float64)
        warp = (row % wpb)[:, None].astype(np.float64)
        tid = warp * warp_size + lane
        self.group = _Group(self.regs, self.preds, {
            special: np.broadcast_to(values, (count, warp_size))
            for special, values in (
                (Special.TID, tid),
                (Special.CTAID, block),
                (Special.NTID, np.float64(block_dim)),
                (Special.NCTAID, np.float64(grid_dim)),
                (Special.GTID, block * block_dim + tid),
                (Special.LANEID, lane),
                (Special.WARPID, warp),
            )
        })
        self.shared = np.zeros(
            (grid_dim, max(1, kernel.shared_mem_bytes // 8)), dtype=np.float64)

        # ---- reconvergence stacks: top entry in arrays ----------------
        threads = np.minimum(warp_size, block_dim - (row % wpb) * warp_size)
        self.lanes = np.arange(warp_size) < threads[:, None]
        self._bit = np.uint64(1) << np.arange(warp_size, dtype=np.uint64)
        self.mask = self.lanes @ self._bit
        self.pc = np.zeros(count, dtype=np.int64)
        self.reconv = np.full(count, NO_RECONV, dtype=np.int64)
        #: The entries under each warp's top one, bottom first:
        #: ``(pc, mask, reconv_pc)``.
        self.below: List[List[Tuple[int, int, int]]] = [[] for _ in range(count)]
        #: PCs some branch reconverges at: only an advance to one can pop.
        self._reconv_pcs = {
            inst.reconv_pc for inst in kernel.instructions
            if inst.op is Opcode.BRA and inst.pred is not None
        }

        # ---- barriers and completion ----------------------------------
        self.at_barrier = np.zeros(count, dtype=bool)
        self.resume_pc = np.zeros(count, dtype=np.int64)
        self.waiting = np.zeros(grid_dim, dtype=np.int64)
        self.live = np.full(grid_dim, wpb, dtype=np.int64)
        self.unfinished = count
        #: Each warp's current :class:`_RaceCheck` key.
        self.key = (self.block_of << _BLOCK_SHIFT) | row
        self.races = _RaceCheck(memory.allocated_bytes // 8, kernel.name, wpb)

        # ---- output ---------------------------------------------------
        self.streams = [WarpStream() for _ in range(count)]
        self.steps = 0
        self._bound: List[Step | None] = [None] * len(kernel.instructions)
        self._log_pcs: List[int] = []
        self._log_rows: List[np.ndarray] = []
        self._log_masks: List[np.ndarray] = []
        self._aux_rows: List[np.ndarray] = []
        self._aux_counts: List[object] = []
        self._aux_values: List[np.ndarray] = []
        self._pending = 0

    # ------------------------------------------------------------------
    def run(self) -> LaunchTrace:
        pc = self.pc
        bound = self._bound
        select = self.group.select
        while True:
            here = int(pc.min())
            if here == _PARKED:
                break
            rows = (pc == here).nonzero()[0]
            first, size = int(rows[0]), len(rows)
            # A run of neighbouring warps is addressed as a slice: the
            # banks are then read and written in place.
            sel = (slice(first, first + size)
                   if int(rows[-1]) - first + 1 == size else rows)
            select(sel)
            self._log_pcs.append(here)
            self._log_rows.append(rows)
            self._log_masks.append(self.mask[rows])
            self._pending += size
            (bound[here] or self._bind(here))(rows, sel)
            if self._pending >= _FLUSH_RECORDS:
                self._flush()
            self.steps += 1
            if self.steps > self.max_steps:
                raise DeadlockError(
                    f"kernel {self.kernel.name!r} is still running after "
                    f"{self.max_steps} functional steps; likely a runaway kernel"
                )
        if self.unfinished:
            raise DeadlockError(
                f"kernel {self.kernel.name!r}: functional deadlock, "
                f"{self.unfinished} warp(s) wait at a barrier that is never "
                "released"
            )
        self._flush()
        wpb = self.warps_per_block
        return LaunchTrace(
            kernel=self.kernel, grid_dim=self.grid_dim, block_dim=self.block_dim,
            warps={divmod(row, wpb): stream
                   for row, stream in enumerate(self.streams)},
        )

    # ------------------------------------------------------------------
    # Reconvergence stack moves (SIMTStack's, top entry in arrays)
    # ------------------------------------------------------------------
    def _set_top(self, row: int, pc: int, mask: int, reconv: int) -> None:
        self.pc[row] = pc
        self.mask[row] = mask
        self.lanes[row] = bools_from_mask(mask, self.warp_size)
        self.reconv[row] = reconv

    def _advance(self, rows: np.ndarray, sel: object, next_pc: int) -> None:
        """``SIMTStack.advance`` for a group."""
        self.pc[sel] = next_pc
        if next_pc in self._reconv_pcs:
            for row in rows[self.reconv[sel] == next_pc].tolist():
                stack = self.below[row]
                if stack:  # the base entry never pops
                    top = stack.pop()
                    while stack and top[0] == top[2]:
                        top = stack.pop()
                    self._set_top(row, *top)

    def _diverge(self, row: int, taken: int, active: int, taken_pc: int,
                 fall_pc: int, reconv_pc: int) -> None:
        """``SIMTStack.diverge`` for one warp."""
        stack = self.below[row]
        stack.append((reconv_pc, active, int(self.reconv[row])))
        stack.append((taken_pc, taken, reconv_pc))
        top = (fall_pc, active & ~taken, reconv_pc)
        # A path that starts at its own reconvergence point has nothing
        # to execute.
        while stack and top[0] == top[2]:
            top = stack.pop()
        self._set_top(row, *top)

    # ------------------------------------------------------------------
    # Binding: one step function per static instruction
    # ------------------------------------------------------------------
    def _bind(self, pc: int) -> Step:
        inst = self.kernel.instructions[pc]
        op = inst.op
        if op is Opcode.BRA:
            step = self._bind_branch(inst)
        elif op is Opcode.LD or op is Opcode.ST:
            step = self._bind_memory(inst)
        elif op is Opcode.EXIT:
            step = self._exit
        elif op is Opcode.BAR:
            step = lambda rows, sel: self._barrier(rows, sel, pc + 1)  # noqa: E731
        elif op is Opcode.NOP or op is Opcode.RECONV:
            step = lambda rows, sel: self._advance(rows, sel, pc + 1)  # noqa: E731
        else:
            step = self._bind_value(inst)
        self._bound[pc] = step
        return step

    def _guard(self, pred, neg: bool) -> Callable[[object], np.ndarray]:
        """``guard(sel)``: the group's active lanes, narrowed by guard
        predicate ``pred`` (negated if ``neg``)."""
        lanes, preds = self.lanes, self.preds
        if pred is None:
            return lambda sel: lanes[sel]
        if neg:
            return lambda sel: lanes[sel] & ~preds[pred, sel]
        return lambda sel: lanes[sel] & preds[pred, sel]

    @staticmethod
    def _write(target: np.ndarray, sel: object, values, where: np.ndarray) -> None:
        """``target[sel] = values`` in the lanes of ``where``."""
        if type(sel) is slice:
            np.copyto(target[sel], values, where=where)
        else:
            target[sel] = np.where(where, values, target[sel])

    def _bind_value(self, inst) -> Step:
        compute = bind_compute(inst)
        group = self.group
        bank = self.preds if inst.op is Opcode.SETP else self.regs
        target = bank[inst.dst]
        # SELP's predicate selects; every active lane is written.
        guard = self._guard(None if inst.op is Opcode.SELP else inst.pred,
                            inst.pred_neg)
        next_pc = inst.pc + 1

        def step(rows: np.ndarray, sel: object) -> None:
            self._write(target, sel, compute(group, group), guard(sel))
            self._advance(rows, sel, next_pc)

        return step

    def _bind_branch(self, inst) -> Step:
        target, next_pc, reconv_pc = inst.target_pc, inst.pc + 1, inst.reconv_pc
        if inst.pred is None:
            return lambda rows, sel: self._advance(rows, sel, target)
        # Here the predicate is the condition, not a guard.
        taken_lanes = self._guard(inst.pred, inst.pred_neg)

        def step(rows: np.ndarray, sel: object) -> None:
            taken = taken_lanes(sel) @ self._bit
            self._log_aux(rows, taken, 1)
            if target == next_pc:
                self._advance(rows, sel, next_pc)
                return
            none = taken == 0
            if none.all():
                self._advance(rows, sel, next_pc)
                return
            active = self.mask[sel]
            every = taken == active
            if every.all():
                self._advance(rows, sel, target)
                return
            for chosen, to in ((none, next_pc), (every, target)):
                if chosen.any():
                    some = rows[chosen]
                    self._advance(some, some, to)
            split = ~(none | every)
            for row, t, a in zip(rows[split].tolist(), taken[split].tolist(),
                                 active[split].tolist()):
                self._diverge(row, t, a, target, next_pc, reconv_pc)

        return step

    def _bind_memory(self, inst) -> Step:
        guard = self._guard(inst.pred, inst.pred_neg)
        regs, memory, races = self.regs, self.memory, self.races
        base = regs[inst.srcs[0]]
        is_load = inst.op is Opcode.LD
        shared = inst.space is MemSpace.SHARED
        data = regs[inst.dst] if is_load else regs[inst.srcs[1]]
        offset = np.int64(0.0 if inst.imm is None else inst.imm)
        pc, next_pc = inst.pc, inst.pc + 1
        line_size = self.line_size

        def step(rows: np.ndarray, sel: object) -> None:
            where = guard(sel)
            addrs = base[sel].astype(np.int64)
            if offset:
                addrs += offset
            mem_mask = where @ self._bit
            lines = None
            if not mem_mask.any():
                pass  # predicated off in every warp: no effect, no lines
            elif shared:
                index = (addrs // 8) % self.shared.shape[1]
                block = self.block_of[sel][:, None]
                if is_load:
                    self._write(data, sel, self.shared[block, index], where)
                else:
                    # Row-major assignment: within a warp the highest lane
                    # wins a conflict, as lane-order serialisation does.
                    owner = np.broadcast_to(block, where.shape)[where]
                    self.shared[owner, index[where]] = data[sel][where]
            else:
                if is_load:
                    self._write(data, sel, memory.load(addrs, where), where)
                else:
                    memory.store(addrs, data[sel], where)
                keys = np.broadcast_to(self.key[sel][:, None], where.shape)[where]
                (races.load if is_load else races.store)(pc, addrs[where] >> 3, keys)
                # Per-warp coalescing as a row sort: the distinct lines of
                # the active lanes, ascending (the LSU's coalesce_lines).
                lines = addrs // line_size * line_size
                lines[~where] = _NO_LINE
                lines.sort(axis=1)
                fresh = lines != _NO_LINE
                fresh[:, 1:] &= lines[:, 1:] != lines[:, :-1]
                counts = fresh.sum(axis=1)
            # Per warp: mem_mask, n_lines, line_0 .. line_{n-1}.
            width = 2 if lines is None else 2 + self.warp_size
            record = np.empty((len(rows), width), dtype=np.uint64)
            record[:, 0] = mem_mask
            record[:, 1] = NO_LINES
            if lines is None:
                self._log_aux(rows, record.ravel(), 2)
            else:
                np.copyto(record[:, 1], counts, where=counts > 0, casting="unsafe")
                record[:, 2:] = lines
                keep = np.ones(record.shape, dtype=bool)
                keep[:, 2:] = fresh
                self._log_aux(rows, record[keep], counts + 2)
            self._advance(rows, sel, next_pc)

        return step

    def _barrier(self, rows: np.ndarray, sel: object, next_pc: int) -> None:
        self._advance(rows, sel, next_pc)
        self.resume_pc[sel] = self.pc[sel]
        self.pc[sel] = _PARKED
        self.at_barrier[sel] = True
        arrived = np.bincount(self.block_of[sel], minlength=self.grid_dim)
        self.waiting += arrived
        self._release(arrived)

    def _exit(self, rows: np.ndarray, sel: object) -> None:
        """EXIT: ``SIMTStack.kill_lanes`` of the active lanes, per warp."""
        done = []
        for row in rows.tolist():
            stack = self.below[row]
            keep = ~int(self.mask[row])
            entries = [(pc, mask & keep, reconv) for pc, mask, reconv in stack]
            # The top entry is dead now; so is every all-zero one under it.
            top = (0, 0, NO_RECONV)
            while entries and not top[1]:
                top = entries.pop()
            if top[1]:
                self.below[row] = entries
                self._set_top(row, *top)
            else:
                done.append(row)
        if done:
            self.pc[done] = _PARKED
            self.unfinished -= len(done)
            left = np.bincount(self.block_of[done], minlength=self.grid_dim)
            self.live -= left
            # A finishing warp can release a barrier the rest already reached.
            self._release(left)

    def _release(self, touched: np.ndarray) -> None:
        """Release the barrier of every ``touched`` block whose unfinished
        warps have all arrived."""
        ready = np.flatnonzero((touched > 0) & (self.live > 0)
                               & (self.waiting >= self.live))
        wpb = self.warps_per_block
        for block in ready.tolist():
            rows = slice(block * wpb, (block + 1) * wpb)
            held = self.at_barrier[rows]
            np.copyto(self.pc[rows], self.resume_pc[rows], where=held)
            held[:] = False
            self.waiting[block] = 0
            self.races.barrier_released = True
            self.key[rows] += 1 << _GEN_SHIFT
            if (int(self.key[rows.start]) >> _GEN_SHIFT) % _GEN_LIMIT == 0:
                raise SimulationError(
                    f"kernel {self.kernel.name!r}: block {block} passed "
                    f"{_GEN_LIMIT} barriers, more than the pass can count"
                )

    # ------------------------------------------------------------------
    # Step log -> per-warp columns
    # ------------------------------------------------------------------
    def _log_aux(self, rows: np.ndarray, values: np.ndarray, counts) -> None:
        """``counts`` aux values per warp of ``rows``, warp after warp."""
        self._aux_rows.append(rows)
        self._aux_counts.append(counts)
        self._aux_values.append(values)

    def _flush(self) -> None:
        if not self._pending:
            return
        sizes = [len(rows) for rows in self._log_rows]
        self._scatter(np.concatenate(self._log_rows), (
            ("pcs", np.repeat(np.array(self._log_pcs, dtype=np.uint32), sizes)),
            ("masks", np.concatenate(self._log_masks)),
        ))
        if self._aux_rows:
            owners = np.concatenate([
                np.repeat(rows, counts)
                for rows, counts in zip(self._aux_rows, self._aux_counts)
            ])
            self._scatter(owners, (("aux", np.concatenate(self._aux_values)),))
        for log in (self._log_pcs, self._log_rows, self._log_masks,
                    self._aux_rows, self._aux_counts, self._aux_values):
            log.clear()
        self._pending = 0

    def _scatter(self, owners: np.ndarray, columns) -> None:
        """Append each column's values to their owners' streams, in log
        order within a warp (one stable sort)."""
        order = np.argsort(owners, kind="stable")
        owners = owners[order]
        starts = np.flatnonzero(np.diff(owners, prepend=-1))
        bounds = list(zip(owners[starts].tolist(), starts.tolist(),
                          starts[1:].tolist() + [len(owners)]))
        for name, values in columns:
            values = values[order]
            for row, start, stop in bounds:
                getattr(self.streams[row], name).frombytes(
                    values[start:stop].tobytes())


def record_launch(
    kernel,
    grid_dim: int,
    block_dim: int,
    memory: GlobalMemory,
    warp_size: int,
    line_size: int,
    max_steps: Optional[float] = None,
) -> Tuple[LaunchTrace, int]:
    """Run one launch functionally against ``memory``; returns its
    :class:`~repro.trace.format.LaunchTrace` and the number of steps taken.

    Raises :class:`~repro.errors.TraceInvarianceError` when a warp's stream
    depends on another warp's timing, :class:`~repro.errors.DeadlockError`
    for a barrier that is never released or a kernel still running after
    ``max_steps`` steps (at most, and by default, :data:`MAX_STEPS`), and
    :class:`~repro.errors.SimulationError` for an out-of-bounds access.
    """
    cap = MAX_STEPS if max_steps is None else int(min(max_steps, MAX_STEPS))
    run = _Pass(kernel, grid_dim, block_dim, memory, warp_size, line_size, cap)
    try:
        return run.run(), run.steps
    finally:
        # The step closures and the operand view point back at the pass:
        # cut the cycle, so the banks go now and not at some collection.
        vars(run).clear()
