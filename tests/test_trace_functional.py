"""The functional recorder against the machinery it replaced.

``repro.trace.functional`` records a launch by stepping *every* warp at the
lowest PC through one NumPy call.  Its claim is that batching only decides
which warps step together: a warp's record sequence is the one the
per-warp ``FunctionalExecutor`` + ``SIMTStack`` + ``coalesce_lines``
produce.  Three checks hold it to that:

* a per-warp reference runner (blocks in order, warps round-robin to the
  next barrier — what the in-pipeline recorder did, minus the pipeline) is
  compared stream for stream and word for word of final global memory on
  hypothesis-generated kernels: nested if/else, bounded and divergent
  loops (``tests/test_prop_programs.py``'s strategies) extended with
  barriers, shared memory, predicated-off LD/ST, partial last warps and
  lanes that EXIT under divergence, at warp sizes 8 / 32 / 64, single- and
  multi-launch;
* a committed digest of every registry workload's streams at scales 0.5
  and 1.0, captured from the in-pipeline recorder before it was deleted
  (``tests/fixtures/stream_digests.json``);
* the schedule-invariance check: the racy fixture kernel is refused from
  every entry point and leaves nothing behind.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import GPU, GPUConfig, KernelBuilder
from repro import trace as trace_mod
from repro.errors import SimulationError, TraceInvarianceError
from repro.experiments import runner
from repro.isa.instructions import CmpOp, IssueKind, MemSpace, Special
from repro.simt.block import ThreadBlock
from repro.simt.warp import Warp, WarpStatus
from repro.sm.lsu import coalesce_lines
from repro.trace import store as trace_store
from repro.trace.format import WarpStream
from repro.trace.functional import record_launch
from repro.trace.recorder import TraceRecorder
from repro.workloads.registry import WORKLOADS
from tests.fixtures import racy_workload
from tests.oracles import run_in_place
from tests.reference import FunctionalExecutor
from tests.test_prop_programs import _blocks, _emit

LINE = 128


# ----------------------------------------------------------------------
# The per-warp reference: FunctionalExecutor + SIMTStack, no pipeline
# ----------------------------------------------------------------------
def _issue(executor, warp, stream, line_size):
    """One instruction of one warp — executed, its stack moved, its record
    appended — as the in-pipeline recorder did when the SM still executed
    at issue.  Lane values and the stack are the executor's."""
    stack = executor.lanes(warp).stack
    pc, active = stack.pc, stack.active_mask
    inst = warp._insts[pc]
    kind = inst.decoded.kind
    result = executor.execute(inst, warp)
    stream.pcs.append(pc)
    stream.masks.append(active)
    if kind in (IssueKind.LOAD, IssueKind.STORE):
        lines = None
        if inst.decoded.needs_global_mem and result.mem_mask:
            lines = coalesce_lines(result.mem_addrs, result.mem_mask, line_size)
        stream.append_memory(result.mem_mask, lines)
        stack.advance(pc + 1)
    elif kind == IssueKind.BRANCH:
        taken = result.taken_mask
        if inst.pred is None:
            stack.advance(inst.target_pc)
            return
        stream.aux.append(taken)
        if taken == 0 or inst.target_pc == pc + 1:
            stack.advance(pc + 1)
        elif active & ~taken == 0:
            stack.advance(inst.target_pc)
        else:
            stack.diverge(inst.target_pc, pc + 1, taken, inst.reconv_pc)
    elif kind == IssueKind.BARRIER:
        stack.advance(pc + 1)
        if warp.block.barrier_arrive(warp):
            warp.block.barrier_release()
    elif kind == IssueKind.EXIT:
        stack.kill_lanes(active)
        if stack.empty:
            warp.mark_finished(0.0)
            if warp.block.barrier_pending_release:
                warp.block.barrier_release()
    else:
        stack.advance(pc + 1)


def reference_launch(kernel, grid_dim, block_dim, memory, warp_size, line_size=LINE):
    """``{(block, warp): WarpStream}``: blocks in order, each block's warps
    round-robin, every warp run to its next barrier."""
    executor = FunctionalExecutor(memory, warp_size)
    streams = {}
    for block_id in range(grid_dim):
        block = ThreadBlock(block_id, block_dim, grid_dim, kernel, warp_size)
        for w in range(block.num_warps):
            block.warps.append(Warp(w, block, warp_size, kernel.num_regs,
                                    kernel.num_preds, dynamic_id=w))
            streams[(block_id, w)] = WarpStream()
        while not block.done:
            stepped = False
            for warp in block.warps:
                while warp.status is WarpStatus.RUNNING:
                    _issue(executor, warp, streams[(block_id, warp.warp_id_in_block)],
                           line_size)
                    stepped = True
            assert stepped, "reference runner deadlocked"
    return streams


def words(memory):
    return memory.read_array(0, memory.allocated_bytes // 8)


def assert_same_recording(build, grid_dim, block_dim, warp_size, launches=1):
    """``build(memory) -> [kernel, ...]`` on two identical memories: the
    batched pass and the reference agree on every stream and every word."""
    config = GPUConfig.default_sim(warp_size=warp_size)
    recorder = TraceRecorder(config)
    reference = GPU(config)  # only its memory is used
    kernels = build(recorder.memory)
    assert [k.disassemble() for k in build(reference.memory)] == [
        k.disassemble() for k in kernels]
    for kernel in kernels:
        launch = recorder.launch(kernel, grid_dim, block_dim)
        expected = reference_launch(kernel, grid_dim, block_dim,
                                    reference.memory, warp_size)
        assert launch.warps.keys() == expected.keys()
        for key, stream in expected.items():
            assert launch.warps[key] == stream, key
    assert np.array_equal(words(recorder.memory), words(reference.memory),
                          equal_nan=True)
    assert len(recorder.launches) == len(kernels)
    return recorder


# ----------------------------------------------------------------------
# Generated kernels
# ----------------------------------------------------------------------
@st.composite
def _programs(draw):
    """Top-level statement list: ``test_prop_programs``' nested control
    flow, interleaved with the statements only a block-level recorder can
    get wrong."""
    program = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(
            ["flow", "flow", "bar", "shared", "guarded", "exit"]))
        if kind == "flow":
            program.append(("flow", draw(_blocks())))
        elif kind in ("guarded", "exit"):
            program.append((kind, draw(st.floats(0.05, 0.95))))
        else:
            program.append((kind,))
    return program


def _emit_program(b, program, acc, x, tid, ntid, src, dst):
    for statement in program:
        kind = statement[0]
        if kind == "flow":
            _emit(b, statement[1], acc, x, [])
        elif kind == "bar":
            b.bar()
        elif kind == "shared":
            # Publish acc, read the next thread's (barriers on both sides:
            # the slot is rewritten by a later "shared" statement).
            slot = b.addr(tid, scale=8)
            b.st(slot, acc, space=MemSpace.SHARED)
            b.bar()
            peer = b.reg()
            b.add(peer, tid, 1.0)
            b.mod(peer, peer, ntid)
            other = b.ld(b.addr(peer, scale=8), space=MemSpace.SHARED)
            b.bar()
            b.mad(acc, other, 0.5, acc)
        elif kind == "guarded":
            # LD/ST under a guard predicate: whole warps may be
            # predicated off (NO_LINES), others partly.
            p = b.pred()
            b.setp(p, CmpOp.GT, x, statement[1])
            extra = b.const(0.25)
            b.ld(b.addr(src, scale=1), dst=extra, pred=p)
            b.add(acc, acc, extra)
            b.st(b.addr(dst, scale=1), acc, pred=p, pred_neg=True)
        elif kind == "exit":
            p = b.pred()
            b.setp(p, CmpOp.GT, x, statement[1])
            with b.if_then(p):
                b.exit()


def _program_kernels(program, n, shared_words, launches):
    def build(memory):
        rng = np.random.RandomState(1234)
        data = memory.alloc_array(rng.rand(n).round(3))
        kernels = []
        for _ in range(launches):
            out = memory.alloc_array(np.zeros(n))
            b = KernelBuilder("generated", shared_mem_bytes=8 * shared_words)
            gtid = b.sreg(Special.GTID)
            tid = b.sreg(Special.TID)
            ntid = b.sreg(Special.NTID)
            src = b.addr(gtid, base=data, scale=8)
            dst = b.addr(gtid, base=out, scale=8)
            x = b.ld(src)
            acc = b.const(1.0)
            _emit_program(b, program, acc, x, tid, ntid, src, dst)
            b.st(dst, acc)
            kernels.append(b.build())
            data = out  # the next launch reads what this one wrote
        return kernels
    return build


@settings(max_examples=30, deadline=None)
@given(
    program=_programs(),
    geometry=st.sampled_from([
        # (warp_size, block_dim, grid_dim): full and partial last warps.
        (8, 20, 3), (8, 32, 2), (32, 40, 2), (32, 96, 2), (32, 64, 1),
        (64, 72, 2), (64, 128, 1),
    ]),
    launches=st.sampled_from([1, 1, 2]),
)
def test_prop_batched_pass_matches_per_warp_reference(program, geometry, launches):
    warp_size, block_dim, grid_dim = geometry
    build = _program_kernels(program, block_dim * grid_dim, block_dim, launches)
    assert_same_recording(build, grid_dim, block_dim, warp_size)


@settings(max_examples=15, deadline=None)
@given(
    trip_counts=st.lists(st.integers(0, 9), min_size=80, max_size=80),
    warp_size=st.sampled_from([8, 32, 64]),
)
def test_prop_divergent_loops(trip_counts, warp_size):
    """Per-lane loop bounds: warps leave the loop at different trips, so
    the min-PC grouping keeps regrouping them."""
    n = len(trip_counts)

    def build(memory):
        trips = memory.alloc_array(np.array(trip_counts, dtype=float))
        out = memory.alloc_array(np.zeros(n))
        b = KernelBuilder("divloop")
        tid = b.sreg(Special.GTID)
        limit = b.ld(b.addr(tid, base=trips, scale=8))
        count = b.const(0.0)
        done = b.pred()
        with b.loop() as lp:
            b.setp(done, CmpOp.GE, count, limit)
            lp.break_if(done)
            b.add(count, count, 1.0)
        b.st(b.addr(tid, base=out, scale=8), count)
        return [b.build()]

    recorder = assert_same_recording(build, 2, 40, warp_size)
    assert np.array_equal(recorder.memory.read_array(8 * n, n), trip_counts)


# ----------------------------------------------------------------------
# Block-level corners, by hand
# ----------------------------------------------------------------------
@pytest.mark.parametrize("warp_size", [8, 32, 64])
def test_a_warp_that_exits_releases_the_barrier_its_block_waits_at(warp_size):
    """Warp 1 exits at once; the other warps are already (or soon) parked
    at the barrier, which only its exit can release."""
    n = 3 * warp_size

    def build(memory):
        out = memory.alloc_array(np.zeros(n))
        b = KernelBuilder("exit_releases")
        tid = b.sreg(Special.TID)
        warp = b.sreg(Special.WARPID)
        leaver = b.pred()
        b.setp(leaver, CmpOp.EQ, warp, 1.0)
        with b.if_then(leaver, invert=True):
            b.bar()
        with b.if_then(leaver):
            b.nop(5)   # still running when the others park
            b.exit()
        b.st(b.addr(tid, base=out, scale=8), b.const(7.0))
        return [b.build()]

    recorder = assert_same_recording(build, 1, n, warp_size)
    stored = recorder.memory.read_array(0, n)
    assert stored.sum() == 7.0 * 2 * warp_size
    assert not stored[warp_size:2 * warp_size].any()


@pytest.mark.parametrize("warp_size", [8, 32])
def test_barrier_sites_at_different_pcs_count_as_one_barrier(warp_size):
    """Warp 0 waits at one BAR while warp 1 publishes and arrives at
    another, after an earlier barrier whose count must be gone."""
    n = 2 * warp_size

    def build(memory):
        out = memory.alloc_array(np.zeros(n))
        b = KernelBuilder("two_sites", shared_mem_bytes=8 * n)
        tid = b.sreg(Special.TID)
        warp = b.sreg(Special.WARPID)
        slot = b.addr(tid, scale=8)
        b.st(slot, tid, space=MemSpace.SHARED)
        b.bar()
        first = b.pred()
        b.setp(first, CmpOp.EQ, warp, 0.0)
        peer = b.reg()
        b.add(peer, tid, float(warp_size))
        frame = b.begin_if(first)
        b.bar()
        # Straight after its barrier, at a lower PC than the other site:
        # released early, warp 0 would get here before warp 1 published.
        x = b.ld(b.addr(peer, scale=8), space=MemSpace.SHARED)
        b.st(b.addr(tid, base=out, scale=8), x)
        b.begin_else(frame)
        later = b.reg()
        b.add(later, tid, 100.0)
        b.st(slot, later, space=MemSpace.SHARED)
        b.bar()
        b.end_if(frame)
        return [b.build()]

    recorder = assert_same_recording(build, 2, n, warp_size)
    seen = recorder.memory.read_array(0, n)
    assert np.array_equal(seen[:warp_size], 100.0 + np.arange(warp_size, n))
    assert not seen[warp_size:].any()


def test_do_while_loop_falls_through_to_its_own_reconvergence_point():
    """A backward conditional branch whose fall-through *is* the
    reconvergence point — the lanes that leave have nothing to execute, so
    ``diverge`` pops their entry at once.  ``validate_kernel`` refuses
    backward conditional branches, hence the hand-built kernel; the stack
    discipline has to hold all the same."""
    from dataclasses import replace

    from repro.isa.instructions import Instruction, Opcode
    from repro.isa.kernel import Kernel

    def build(memory):
        trips = memory.alloc_array(np.arange(64.0) % 5 + 1)
        out = memory.alloc_array(np.zeros(64))
        instructions = [
            Instruction(Opcode.SREG, dst=0, special=Special.GTID),
            Instruction(Opcode.MUL, dst=1, srcs=(0,), imm=8.0),
            Instruction(Opcode.LD, dst=2, srcs=(1,), imm=float(trips)),
            Instruction(Opcode.MOV, dst=3, imm=0.0),
            Instruction(Opcode.ADD, dst=3, srcs=(3,), imm=1.0),          # top
            Instruction(Opcode.SETP, dst=0, srcs=(3, 2), cmp=CmpOp.LT),
            Instruction(Opcode.BRA, pred=0, target_pc=4, reconv_pc=7),
            Instruction(Opcode.RECONV),                                   # end
            Instruction(Opcode.ST, srcs=(1, 3), imm=float(out)),
            Instruction(Opcode.EXIT),
        ]
        return [Kernel(
            name="do_while",
            instructions=[replace(i, pc=pc) for pc, i in enumerate(instructions)],
            labels={}, num_regs=4, num_preds=1,
        )]

    recorder = assert_same_recording(build, 2, 32, 32)
    assert np.array_equal(recorder.memory.read_array(8 * 64, 64),
                          np.arange(64.0) % 5 + 1)
    assert recorder.launches[0].record_count > recorder.steps  # batched


def test_a_kernel_that_never_ends_is_an_error_not_a_hang(monkeypatch):
    b = KernelBuilder("forever")
    one = b.const(1.0)
    never = b.pred()
    with b.loop() as lp:
        b.setp(never, CmpOp.LT, one, 0.0)
        lp.break_if(never)
    kernel = b.build()
    monkeypatch.setattr("repro.trace.functional.MAX_STEPS", 500)
    recorder = TraceRecorder(GPUConfig.default_sim())
    with pytest.raises(SimulationError, match="500 functional steps"):
        recorder.launch(kernel, 2, 64)
    assert recorder.launches == []


def test_a_callers_step_cap_is_a_named_deadlock():
    """``GPU.launch`` hands the pass the cap its ``max_cycles`` implies."""
    from repro.errors import DeadlockError

    b = KernelBuilder("forever")
    b.label("top")
    b.nop()
    b.bra("top")
    memory = GPU(GPUConfig.default_sim()).memory
    with pytest.raises(DeadlockError, match="after 100 functional steps; likely "
                                            "a runaway kernel"):
        record_launch(b.build(), 2, 64, memory, 32, LINE, max_steps=100.5)
    started = time.perf_counter()
    with pytest.raises(DeadlockError, match="runaway kernel"):
        GPU(GPUConfig.default_sim(), max_cycles=10_000).launch(b.build(), 2, 64)
    assert time.perf_counter() - started < 1.0


def test_out_of_bounds_access_is_the_executors_error():
    def build(memory):
        memory.alloc_array(np.zeros(4))
        b = KernelBuilder("oob")
        tid = b.sreg(Special.GTID)
        b.ld(b.addr(tid, scale=8))
        return b.build()

    recorder = TraceRecorder(GPUConfig.default_sim())
    with pytest.raises(SimulationError, match="out-of-bounds"):
        recorder.launch(build(recorder.memory), 1, 32)


def test_a_group_of_one_warp_takes_the_same_path():
    """No unbatched fallback: a single-warp launch is a group of one."""
    def build(memory):
        data = memory.alloc_array(np.arange(32.0))
        b = KernelBuilder("one_warp")
        tid = b.sreg(Special.GTID)
        x = b.ld(b.addr(tid, base=data, scale=8))
        odd = b.pred()
        half = b.reg()
        b.mod(half, x, 2.0)
        b.setp(odd, CmpOp.GT, half, 0.5)
        with b.if_then(odd):
            b.mul(x, x, 3.0)
        b.st(b.addr(tid, base=data, scale=8), x)
        return [b.build()]

    recorder = assert_same_recording(build, 1, 32, 32)
    assert recorder.steps == recorder.launches[0].record_count


def test_record_launch_reports_steps_and_batches():
    recorder = TraceRecorder(GPUConfig.default_sim())
    spec = WORKLOADS["kmeans"](scale=0.5).build(recorder)
    launch, steps = record_launch(spec.kernel, spec.grid_dim, spec.block_dim,
                                  recorder.memory, 32, LINE)
    # Convergent kernel: every warp shares every step.
    assert launch.record_count == steps * len(launch.warps)


# ----------------------------------------------------------------------
# (b) the in-pipeline recorder's streams, pinned before it was deleted
# ----------------------------------------------------------------------
DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "stream_digests.json").read_text())


def program_digest(program) -> str:
    h = hashlib.sha256()
    for launch in program.launches:
        h.update(f"{launch.kernel_fp}:{launch.grid_dim}:{launch.block_dim};".encode())
        for (block, warp), stream in sorted(launch.warps.items()):
            h.update(f"{block},{warp},{len(stream.pcs)},{len(stream.aux)};".encode())
            h.update(stream.pcs.tobytes())
            h.update(stream.masks.tobytes())
            h.update(stream.aux.tobytes())
    return h.hexdigest()[:16]


def test_digest_table_covers_the_registry():
    assert {cell.split("@")[0] for cell in DIGESTS} == set(WORKLOADS)
    assert len(DIGESTS) == 2 * len(WORKLOADS)


@pytest.mark.parametrize("cell", sorted(DIGESTS))
def test_streams_are_the_in_pipeline_recorders(cell):
    workload, scale = cell.split("@")
    program = trace_mod.record_program(workload, scale=float(scale))
    expected = DIGESTS[cell]
    assert program.record_count == expected["records"]
    assert program.trace_id == expected["trace_id"]
    assert program_digest(program) == expected["digest"]
    assert program.meta["verified"] and program.meta["steps"] > 0


# ----------------------------------------------------------------------
# The examples: every kernel they launch records clean
# ----------------------------------------------------------------------
EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_every_example_runs_and_its_kernels_record_clean(path, monkeypatch, capsys):
    """Run the example; every launch it makes on an executing ``GPU`` is
    also put through the functional pass, on a copy of the memory the
    launch starts from: no ``TraceInvarianceError``, one record per issued
    warp instruction, and the same memory afterwards."""
    import copy
    import runpy

    from repro.trace import recorder as recorder_mod

    passes = []
    launch, record = GPU.launch, recorder_mod.record_launch

    def recorded_launch(self, kernel, grid_dim, block_dim, scheme=""):
        if self.trace_program is not None:  # run_scheme's replay of a pass
            return launch(self, kernel, grid_dim, block_dim, scheme)
        memory = copy.deepcopy(self.memory)
        trace, _steps = record_launch(kernel, grid_dim, block_dim, memory,
                                      self.config.warp_size,
                                      self.config.l1d.line_size)
        result = launch(self, kernel, grid_dim, block_dim, scheme)
        assert trace.record_count == result.warp_instructions
        assert np.array_equal(words(memory), words(self.memory), equal_nan=True)
        passes.append(trace.record_count)
        return result

    def counted_pass(*args, **kwargs):
        trace, steps = record(*args, **kwargs)
        passes.append(trace.record_count)
        return trace, steps

    monkeypatch.setattr(GPU, "launch", recorded_launch)
    monkeypatch.setattr(recorder_mod, "record_launch", counted_pass)
    monkeypatch.setattr("sys.argv", [str(path)])
    runner.clear_cache()
    runpy.run_path(str(path), run_name="__main__")
    runner.clear_cache()
    assert passes and capsys.readouterr().out


# ----------------------------------------------------------------------
# Schedule-invariance, checked at record time
# ----------------------------------------------------------------------
class TestInvariance:
    MESSAGE = (r"kernel 'racy_shift' pc=\d+: warp \d+ of block \d+ "
               r"(loads|stores to) the word at address 0x[0-9a-f]+ that "
               r"warp \d+ of block \d+ (stored|loaded)")

    def test_racy_kernel_is_refused_by_the_recorder(self):
        recorder = TraceRecorder(GPUConfig.default_sim())
        with pytest.raises(TraceInvarianceError, match=self.MESSAGE):
            racy_workload.RacyShiftWorkload().run(recorder)
        assert recorder.launches == []

    def test_refused_without_a_trace_store_as_well(self, monkeypatch):
        """Every launch is timed from a recording, so there is no path left
        that runs a racy kernel: a hand-built GPU and the tests' store-less
        ``run_in_place`` cells record in place, and refuse."""
        racy_workload.register(monkeypatch)
        gpu = GPU(GPUConfig.default_sim())
        with pytest.raises(TraceInvarianceError, match=self.MESSAGE) as refusal:
            racy_workload.RacyShiftWorkload().run(gpu)
        assert "with_frontend" not in str(refusal.value)
        assert gpu.now == 0.0  # refused before the clock started
        with pytest.raises(TraceInvarianceError, match=self.MESSAGE):
            run_in_place(racy_workload.NAME, "rr", 1.0, GPUConfig.default_sim())
        assert trace_store.stats()["entries"] == 0

    def test_refused_from_run_scheme_and_nothing_is_stored(self, monkeypatch):
        racy_workload.register(monkeypatch)
        with pytest.raises(TraceInvarianceError, match=self.MESSAGE):
            runner.run_scheme(racy_workload.NAME, "gto")
        assert trace_store.stats()["entries"] == 0
        assert trace_mod.load_program(
            racy_workload.NAME, 1.0, GPUConfig.default_sim()) is None

    def test_refused_from_record_workload(self, monkeypatch):
        racy_workload.register(monkeypatch)
        with pytest.raises(TraceInvarianceError, match=self.MESSAGE):
            trace_mod.record_workload(racy_workload.NAME)

    def test_refused_from_the_cli(self, monkeypatch, capsys):
        from repro import cli

        racy_workload.register(monkeypatch)
        code = cli.main(["run", "--workload", racy_workload.NAME, "--scheme", "gto"])
        assert code == 2
        err = capsys.readouterr().err
        assert "racy_shift" in err and "warp" in err and "address 0x" in err
        assert trace_store.stats()["entries"] == 0

    def test_barrier_separates_accesses_of_one_block(self):
        """Ping-pong through global memory inside a block (pathfinder's
        shape): fine with the barrier, refused without."""
        def kernel(memory, with_barrier):
            data = memory.alloc_array(np.arange(64.0))
            b = KernelBuilder("pingpong")
            tid = b.sreg(Special.TID)
            b.st(b.addr(tid, base=data, scale=8), b.const(1.0))
            if with_barrier:
                b.bar()
            peer = b.reg()
            b.add(peer, tid, 32.0)
            b.mod(peer, peer, 64.0)
            x = b.ld(b.addr(peer, base=data, scale=8))
            if with_barrier:
                b.bar()
            b.st(b.addr(tid, base=data, scale=8), x)
            return b.build()

        fine = TraceRecorder(GPUConfig.default_sim())
        fine.launch(kernel(fine.memory, True), 1, 64)
        assert np.array_equal(fine.memory.read_array(0, 64), np.ones(64))
        racy = TraceRecorder(GPUConfig.default_sim())
        with pytest.raises(TraceInvarianceError, match="loads the word"):
            racy.launch(kernel(racy.memory, False), 1, 64)

    def test_a_read_behind_a_barrier_does_not_block_the_owners_update(self):
        """My neighbour warp read my slot before the barrier; after it I
        read and rewrite the slot myself."""
        def build(memory):
            data = memory.alloc_array(np.arange(64.0))
            b = KernelBuilder("owner_update")
            tid = b.sreg(Special.TID)
            peer = b.reg()
            b.add(peer, tid, 32.0)
            b.mod(peer, peer, 64.0)
            theirs = b.ld(b.addr(peer, base=data, scale=8))
            b.bar()
            mine = b.ld(b.addr(tid, base=data, scale=8))
            b.add(mine, mine, theirs)
            b.st(b.addr(tid, base=data, scale=8), mine)
            return [b.build()]

        recorder = assert_same_recording(build, 1, 64, 32)
        assert np.array_equal(recorder.memory.read_array(0, 64),
                              np.arange(64.0) + (np.arange(64.0) + 32) % 64)

    def test_every_reader_of_a_step_is_remembered(self):
        """Both warps load one word in the same step; the later warp then
        stores to it.  Its own read must not hide the other warp's."""
        def build(memory):
            data = memory.alloc_array(np.zeros(1))
            b = KernelBuilder("broadcast_then_store")
            zero = b.const(0.0)
            x = b.ld(b.addr(zero, base=data, scale=8))
            last = b.pred()
            b.setp(last, CmpOp.EQ, b.sreg(Special.WARPID), 1.0)
            b.st(b.addr(zero, base=data, scale=8), x, pred=last)
            return b.build()

        recorder = TraceRecorder(GPUConfig.default_sim())
        with pytest.raises(
                TraceInvarianceError,
                match="warp 1 of block 0 stores to the word at address 0x0 "
                      "that warp 0 of block 0 loaded"):
            recorder.launch(build(recorder.memory), 1, 64)

    def test_a_barrier_does_not_excuse_another_block(self):
        def build(memory):
            data = memory.alloc_array(np.zeros(64))
            b = KernelBuilder("cross_block")
            gtid = b.sreg(Special.GTID)
            b.st(b.addr(gtid, base=data, scale=8), b.const(1.0))
            b.bar()
            peer = b.reg()
            b.add(peer, gtid, 32.0)
            b.mod(peer, peer, 64.0)
            b.ld(b.addr(peer, base=data, scale=8))
            return b.build()

        recorder = TraceRecorder(GPUConfig.default_sim())
        with pytest.raises(TraceInvarianceError, match="loads the word"):
            recorder.launch(build(recorder.memory), 2, 32)

    def test_same_value_stores_from_many_warps_are_not_judged(self):
        def build(memory):
            flag = memory.alloc_array(np.zeros(1))
            b = KernelBuilder("flag")
            b.st(b.addr(b.const(0.0), base=flag, scale=8), b.const(1.0))
            return b.build()

        recorder = TraceRecorder(GPUConfig.default_sim())
        recorder.launch(build(recorder.memory), 2, 64)
        assert recorder.memory.read_word(0) == 1.0

    def test_a_launch_boundary_separates_everything(self):
        """Launch 2 reads what every warp of launch 1 wrote."""
        def build(memory):
            a = memory.alloc_array(np.arange(64.0))
            out = memory.alloc_array(np.zeros(64))
            kernels = []
            for source, target in ((a, out), (out, a)):
                b = KernelBuilder("shift")
                gtid = b.sreg(Special.GTID)
                peer = b.reg()
                b.add(peer, gtid, 32.0)
                b.mod(peer, peer, 64.0)
                x = b.ld(b.addr(peer, base=source, scale=8))
                b.st(b.addr(gtid, base=target, scale=8), x)
                kernels.append(b.build())
            return kernels

        recorder = assert_same_recording(build, 2, 32, 32)
        assert np.array_equal(recorder.memory.read_array(0, 64), np.arange(64.0))
