"""The columnar trace (format v2): what it stores, what it costs, and how it
fails.

* round trip — random per-warp streams of every record kind survive
  encode -> decode, and the recorded programs mean exactly what the v1
  record lists stored (canonical digests pinned from the parent commit);
* fault injection — every way a v2 file can be damaged is a named
  :class:`~repro.errors.TraceFormatError` under ``strict=True`` and an
  evict-and-re-record under the runner, never a replay of wrong records;
* footprint — the resident and decode-time memory the columns were
  introduced for.
"""

from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import trace as trace_mod
from repro.config import GPUConfig
from repro.errors import TraceFormatError
from repro.experiments import runner
from repro.isa.instructions import CmpOp, Special
from repro.isa.kernel import KernelBuilder
from repro.trace.format import (
    AUX_BRANCH,
    AUX_MEM,
    AUX_NONE,
    NO_LINES,
    LaunchTrace,
    TraceProgram,
    WarpStream,
    classify_aux,
)

from tests.conftest import join_sections, split_sections

SCALE = 0.25


@pytest.fixture(autouse=True)
def _fresh_memo():
    runner.clear_cache()
    yield
    runner.clear_cache()


def _kernel():
    """A kernel holding every record kind: ALU, SETP, LD, ST, conditional and
    unconditional branch, BAR, EXIT."""
    b = KernelBuilder("kinds")
    i = b.sreg(Special.GTID)
    p = b.pred()
    b.setp(p, CmpOp.LT, i, 8.0)
    with b.if_then(p):
        x = b.ld(b.addr(i, base=0, scale=8))
        with b.loop() as lp:
            b.setp(p, CmpOp.GE, x, 4.0)
            lp.break_if(p)
            b.add(x, x, 1.0)
        b.st(b.addr(i, base=4096, scale=8), x)
    b.bar()
    return b.build()


KERNEL = _kernel()
KINDS = classify_aux(KERNEL)
MASKS = st.integers(0, (1 << 64) - 1)


@st.composite
def records(draw):
    pc = draw(st.integers(0, len(KINDS) - 1))
    mask = draw(MASKS)
    if KINDS[pc] == AUX_NONE:
        return pc, mask, None
    if KINDS[pc] == AUX_BRANCH:
        return pc, mask, draw(MASKS)
    lines = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, (1 << 48)).map(lambda a: a * 128), max_size=32),
    ))
    return pc, mask, (draw(MASKS), lines)


def _stream(recs):
    stream = WarpStream()
    for pc, mask, payload in recs:
        stream.pcs.append(pc)
        stream.masks.append(mask)
        if isinstance(payload, tuple):
            stream.append_memory(*payload)
        elif payload is not None:
            stream.aux.append(payload)
    return stream


def _program(warps):
    launch = LaunchTrace(kernel=KERNEL, grid_dim=len(warps), block_dim=64, warps=warps)
    return TraceProgram(functional_fingerprint="f" * 16, workload="kinds",
                        meta={"verified": True}, launches=[launch])


class TestRoundTrip:
    def test_the_kernel_holds_every_record_kind(self):
        assert {AUX_NONE, AUX_BRANCH, AUX_MEM} == set(KINDS)
        unconditional = [i for i in KERNEL.instructions
                         if i.is_branch and i.pred is None]
        assert unconditional and all(KINDS[i.pc] == AUX_NONE for i in unconditional)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(records(), min_size=1, max_size=40),
                    min_size=1, max_size=5))
    def test_random_streams_survive_encode_decode(self, per_warp):
        warps = {(b, 0): _stream(recs) for b, recs in enumerate(per_warp)}
        back = TraceProgram.from_bytes(_program(warps).to_bytes())
        (launch,) = back.launches
        assert launch.warps == warps
        for (b, _w), stream in launch.warps.items():
            assert list(stream.records(KINDS)) == per_warp[b]
            assert stream.threads() == sum(m.bit_count() for _pc, m, _a in per_warp[b])

    def test_no_lines_is_minus_one_and_distinct_from_zero_lines(self):
        ld = KINDS.index(AUX_MEM)
        stream = _stream([(ld, 1, (0, None)), (ld, 1, (7, []))])
        assert stream.aux.tolist() == [0, NO_LINES, 7, 0]
        assert NO_LINES == (-1) % (1 << 64)
        assert [r[2] for r in stream.records(KINDS)] == [(0, None), (7, [])]

    #: sha256 of the canonical ``launch block warp pc mask payload`` lines,
    #: computed from the v1 record lists at the parent commit.
    PARENT_DIGESTS = {
        "bfs": "d211738b9e2950b566e425d53b0ccdedaed1c37f4199844c89a9efe8efa52005",
        "kmeans": "5580d10005336d30ac3890d5b47fc19db43b3d4e44c86304b22362e1689285c9",
        "needle": "757ad3421e76ee115d4815c001d4d933e9af8c2be0bd0a0d5567e99b75b9ac95",
    }

    @pytest.mark.parametrize("workload", sorted(PARENT_DIGESTS))
    def test_v2_program_means_what_v1_stored(self, workload):
        _, program = trace_mod.record_workload(
            workload, scale=SCALE, config=GPUConfig.default_sim())
        program = TraceProgram.from_bytes(program.to_bytes())
        digest = hashlib.sha256()
        for index, launch in enumerate(program.launches):
            for block, warp, (pc, mask, payload) in launch.records():
                if payload is None:
                    text = ""
                elif isinstance(payload, tuple):
                    lines = payload[1]
                    text = f"{payload[0]}:" + (
                        "-" if lines is None else ",".join(map(str, lines)))
                else:
                    text = str(payload)
                digest.update(
                    f"{index} {block} {warp} {pc} {mask} {text}\n".encode())
        assert digest.hexdigest() == self.PARENT_DIGESTS[workload]


# ----------------------------------------------------------------------
# Fault injection on the v2 file
# ----------------------------------------------------------------------
def _flip(blob: bytes, position: int) -> bytes:
    return blob[:position] + bytes([blob[position] ^ 0x10]) + blob[position + 1:]


def _faults(blob: bytes):
    """``name -> damaged bytes``: every section boundary truncated, one bit
    flipped in each section, a v1 file, a foreign magic."""
    header, packed, _crc = split_sections(blob)
    header_end = blob.index(b"\n")
    table_at = blob.index(b'"warps":[[') + len('"warps":[[') + 4
    faults = {
        "empty": b"",
        "truncated in header": blob[:header_end // 2],
        "truncated after header": blob[:header_end + 1],
        "truncated before crc": blob[:-4],
        "truncated in crc": blob[:-2],
        "bit flip in header": _flip(blob, header_end // 2),
        "bit flip in magic": _flip(blob, 12),
        "bit flip in length table": _flip(blob, table_at),
        "bit flip in crc": _flip(blob, len(blob) - 1),
        "v1 file": zlib.compress(json.dumps(
            {"magic": "repro-trace", "format_version": 1, "launches": []}).encode()),
        "foreign magic": join_sections(dict(header, magic="other-trace"), packed),
        "consistent header, wrong lengths": join_sections(
            dict(header, sections=[n + 1 for n in header["sections"]]), packed),
    }
    offset = header_end + 1
    for name, size in zip(("pcs", "masks", "aux"), header["sections"]):
        faults[f"truncated after {name} section"] = blob[:offset + size]
        faults[f"bit flip in {name} section"] = _flip(blob, offset + size // 2)
        offset += size
    return faults


class TestFaultInjection:
    #: Small on purpose: every fault costs one re-recording.
    SCALE = 0.05

    @pytest.fixture(scope="class")
    def blob(self):
        _, program = trace_mod.record_workload(
            "bfs", scale=self.SCALE, config=GPUConfig.default_sim(), check=True)
        return program.to_bytes()

    def test_every_fault_is_a_named_error_and_an_eviction(self, blob, config):
        """Strict loads name the damage; the runner evicts the file and
        re-records instead of replaying it."""
        reference = runner.run_scheme(
            "bfs", "gto", scale=self.SCALE, config=config.with_frontend("execute"),
            use_cache=False, persistent=False)
        path = trace_mod.trace_path("bfs", self.SCALE, config)
        path.parent.mkdir(parents=True)
        faults = _faults(blob)
        assert len(faults) >= 18
        streams = TraceProgram.from_bytes(blob).launches[0].warps
        for name, damaged in faults.items():
            assert damaged != blob, name
            path.write_bytes(damaged)
            with pytest.raises(TraceFormatError):
                trace_mod.load_program("bfs", self.SCALE, config, strict=True)
            with pytest.raises(TraceFormatError):
                trace_mod.format.read_info(path)
            result = runner.run_scheme("bfs", "gto", scale=self.SCALE, config=config,
                                       use_cache=False, persistent=False)
            assert result.recorded, f"{name}: replayed a damaged trace"
            assert result.cycles == reference.cycles, name
            assert TraceProgram.load(path).launches[0].warps == streams, (
                f"{name}: not re-recorded")

    def test_length_table_disagreeing_with_the_columns_is_refused(self, blob):
        """A checksum-consistent file whose table miscounts a warp."""
        header, packed, _crc = split_sections(blob)
        for index in (2, 3):  # records, aux
            for delta in (-1, 1):
                doctored = json.loads(json.dumps(header))
                doctored["launches"][0]["warps"][0][index] += delta
                with pytest.raises(TraceFormatError, match="length table|empty"):
                    TraceProgram.from_bytes(join_sections(doctored, packed))

    def test_truncation_anywhere_is_refused(self, blob):
        for cut in range(0, len(blob), max(1, len(blob) // 257)):
            with pytest.raises(TraceFormatError):
                TraceProgram.from_bytes(blob[:cut])

    def test_replay_refuses_a_stream_whose_payload_ran_out(self, config):
        """The missing-payload guards: records whose aux stream is short."""
        _, program = trace_mod.record_workload("bfs", scale=SCALE, config=config)
        launch = program.launches[0]
        for stream in launch.warps.values():
            del stream.aux[len(stream.aux) // 2:]
        with pytest.raises(TraceFormatError, match="missing its"):
            trace_mod.replay_program(program, config, scheme="rr")

    @pytest.mark.parametrize("keep,guard", [
        (0, "branch record at pc=2 is missing its taken mask"),
        (1, "memory record at pc=5 is missing its address payload"),  # no mask
        (2, "memory record at pc=5 is missing its address payload"),  # no count
        (3, "memory record at pc=5 is missing its address payload"),  # no lines
    ])
    def test_each_payload_guard_names_its_record(self, config, keep, guard):
        """The SM reads the aux column itself: a branch without its taken
        mask and a LD cut anywhere inside ``mem_mask, n_lines, lines``."""
        from repro import GPU
        from tests.conftest import build_copy_kernel

        recorder = trace_mod.TraceRecorder(config)
        src = recorder.memory.alloc_array(np.arange(32.0))
        dst = recorder.memory.alloc_array(np.zeros(32))
        kernel = build_copy_kernel(32, src, dst)
        assert [kernel.instructions[pc].op.value for pc in (2, 5)] == ["bra", "ld"]
        recorder.launch(kernel, 1, 32)
        program = recorder.finish()
        (stream,) = program.launches[0].warps.values()
        assert len(stream.aux) == 9  # taken | LD mask, 2, 2 lines | ST the same
        intact = GPU(config, trace=program).launch(kernel, 1, 32)
        assert intact.warp_instructions == len(stream)
        del stream.aux[keep:]
        with pytest.raises(TraceFormatError, match=guard):
            GPU(config, trace=program).launch(kernel, 1, 32)

    @pytest.mark.parametrize("workload", ["bfs", "needle"])
    def test_replay_refuses_a_stream_without_its_terminal_exit(self, config, workload):
        """A warp stream that just stops: the warp is still running with
        nothing left to issue (used to be a bare ``IndexError`` from inside
        the SM)."""
        _, program = trace_mod.record_workload(workload, scale=SCALE, config=config)
        (block_id, warp_id), stream = sorted(program.launches[0].warps.items())[3]
        records = len(stream)
        stream.pcs.pop()
        stream.masks.pop()
        with pytest.raises(TraceFormatError) as failure:
            trace_mod.replay_program(program, config, scheme="rr")
        message = str(failure.value)
        assert f"block={block_id}, warp={warp_id}" in message
        assert f"no record {records - 1}" in message and "terminal EXIT" in message


# ----------------------------------------------------------------------
# Footprint
# ----------------------------------------------------------------------
class TestFootprint:
    def test_program_and_decode_stay_small(self, config):
        """bfs at scale 0.5 (25.5k records): 3.24 MB live and a 5.4 MB
        decode peak as v1 record lists."""
        _, program = trace_mod.record_workload("bfs", scale=0.5, config=config)
        blob = program.to_bytes()
        records = program.record_count
        del program
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            program = TraceProgram.from_bytes(blob)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert program.record_count == records > 25_000
        assert live - base <= 0.7e6
        assert peak - base <= 1.0e6
        assert len(blob) <= 1.3 * records

    def test_replay_drops_a_warps_columns_when_it_retires(self, config):
        _, program = trace_mod.record_workload("bfs", scale=SCALE, config=config)
        result = trace_mod.replay_program(program, config, scheme="rr")[-1]
        warps = [w for b in result.blocks for w in b.warps]
        assert warps and all(
            w.finished and w._stream is None and not w._pcs and not w._aux
            for w in warps)
        assert all(b.trace is None for b in result.blocks)
        assert sum(w.thread_instructions for w in warps) == result.thread_instructions > 0


def test_header_is_read_without_inflating_a_column(config, monkeypatch):
    _, program = trace_mod.record_workload("bfs", scale=SCALE, config=config)
    trace_mod.store_program(program, "bfs", SCALE, config)
    monkeypatch.setattr(zlib, "decompress", lambda *a, **k: pytest.fail("inflated"))
    ((_path, info),) = trace_mod.list_traces()
    assert (info.workload, info.scale) == ("bfs", SCALE)
    assert info.trace_id == program.trace_id
    assert info.record_count == program.record_count
    assert info.launches == len(program.launches)
    assert info.meta["verified"] is True


def test_recorder_refuses_masks_wider_than_the_columns():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="64-bit"):
        trace_mod.TraceRecorder(GPUConfig.default_sim(warp_size=128))


def test_execute_frontend_never_consults_the_store(config, monkeypatch):
    for name in ("load_program", "store_program", "replay_program"):
        monkeypatch.setattr(trace_mod, name, lambda *a, **k: pytest.fail(name))
    result = runner.run_scheme("bfs", "rr", scale=SCALE,
                               config=config.with_frontend("execute"),
                               use_cache=False, persistent=False)
    assert (result.frontend, result.trace_id) == ("execute", None)
    assert not trace_mod.list_traces()
