"""The trace store: record/replay round trips, the persistent store, and
its staleness guards.

The bit-identical parity contract (stored-trace replay vs in-place
recording over the full workload x scheme grid) lives in
``tests/test_trace_parity.py``; this file
covers the subsystem's plumbing — format versioning, compression,
fingerprint/geometry/kernel mismatch errors, corruption recovery, the
runner's auto-record-on-miss path, and result provenance serialization.
"""

from __future__ import annotations

import dataclasses
import zlib

import pytest

from repro import trace as trace_mod
from repro.trace import store as trace_store
from repro.config import GPUConfig
from repro.errors import TraceFormatError, TraceMismatchError
from repro.experiments import runner
from repro.stats.accuracy import CriticalityAccuracyTracker
from repro.stats.counters import RunResult, result_from_dict
from repro.trace.format import (
    TRACE_FORMAT_VERSION,
    TRACE_MAGIC,
    TraceProgram,
    WarpStream,
    kernel_fingerprint,
)

from tests.conftest import join_sections, record_once, split_sections
from tests.oracles import run_in_place

SCALE = 0.25


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Trace tests must not inherit memoized results from other files."""
    runner.clear_cache()
    yield
    runner.clear_cache()


def _record(workload="bfs", scale=SCALE, config=None, **kwargs):
    """``(result, program)``; shared between tests (``record_once``)."""
    return record_once(workload, scale, config, **kwargs)


# ----------------------------------------------------------------------
# Record -> replay round trip (in memory)
# ----------------------------------------------------------------------
class TestRecordReplay:
    def test_replay_matches_recording_run(self, config):
        result, program = _record(config=config)
        replayed = trace_mod.replay_program(program, config, scheme="rr")
        assert len(replayed) == 1
        rep = replayed[0]
        assert rep.cycles == result.cycles
        assert rep.warp_instructions == result.warp_instructions
        assert rep.thread_instructions == result.thread_instructions
        assert rep.l1_stats.accesses == result.l1_stats.accesses
        assert rep.l1_stats.misses == result.l1_stats.misses
        assert rep.dram_accesses == result.dram_accesses

    def test_provenance_fields(self, config):
        result, program = _record(config=config)
        assert result.frontend == "trace" and result.recorded
        assert result.trace_id == program.trace_id
        assert result.record_steps == program.meta["steps"]
        assert result.record_warps == program.warp_count
        rep = trace_mod.replay_program(program, config, scheme="rr")[0]
        assert rep.frontend == "trace" and not rep.recorded
        assert rep.trace_id == program.trace_id
        # Provenance rides along in the serialised form and never decides
        # whether two results are equal.
        back = result_from_dict(result.to_dict())
        assert (back.recorded, back.record_s, back.replay_s, back.record_steps,
                back.record_warps) == (True, result.record_s, result.replay_s,
                                       result.record_steps, result.record_warps)
        assert result_from_dict(rep.to_dict()) == back

    def test_trace_id_is_content_addressed(self, config):
        _, a = _record(config=config)
        _, b = trace_mod.record_workload("bfs", scale=SCALE, config=config)
        assert a is not b and a.trace_id == b.trace_id

    def test_record_count_positive(self, config):
        _, program = _record(config=config)
        assert program.record_count > 0
        assert len(program.launches) >= 1

    def test_recording_is_scheme_invariant(self, config):
        """Streams recorded under gto replay to the same cycles as rr's."""
        _, prog_rr = _record(config=config, scheme="rr")
        _, prog_gto = _record(config=config, scheme="gto")
        assert prog_rr.trace_id == prog_gto.trace_id


    def test_recording_coalesces_each_global_access_once(self, config, monkeypatch):
        """The functional pass coalesces a recorded access (as a row sort
        over the group's line matrix); the trace stores that list and the
        LSU walks it.  ``coalesce_lines`` — the per-address rule, kept as
        the reference the functional pass is tested against — is called on
        neither path: an in-place cell walks recorded lists too, the ones
        its GPU's own functional pass made."""
        from repro.sm import lsu as lsu_mod

        monkeypatch.setattr(lsu_mod, "coalesce_lines",
                            lambda *a: pytest.fail("coalesced at issue"))
        result, program = trace_mod.record_workload("bfs", scale=SCALE, config=config)
        stored = [payload[1] for launch in program.launches
                  for _b, _w, (_pc, _mask, payload) in launch.records()
                  if isinstance(payload, tuple) and payload[1] is not None]
        assert len(stored) > 100
        assert result.l1_stats.accesses == sum(len(lines) for lines in stored)
        in_place = run_in_place("bfs", "rr", SCALE, config)
        assert in_place.l1_stats.accesses == result.l1_stats.accesses


# ----------------------------------------------------------------------
# Serialization: bytes round trip, versioning, corruption
# ----------------------------------------------------------------------
class TestFormat:
    def test_bytes_round_trip(self, config):
        _, program = _record(config=config)
        blob = program.to_bytes()
        loaded = TraceProgram.from_bytes(blob)
        assert loaded.trace_id == program.trace_id
        assert loaded.functional_fingerprint == program.functional_fingerprint
        assert loaded.record_count == program.record_count
        rep = trace_mod.replay_program(loaded, config)[0]
        exec_result = runner.run_scheme(
            "bfs", "rr", scale=SCALE, config=config,
            use_cache=False, persistent=False,
        )
        assert rep.cycles == exec_result.cycles

    def test_blob_is_json_header_then_compressed_columns(self, config):
        _, program = _record(config=config)
        blob = program.to_bytes()
        header, packed, crc = split_sections(blob)
        assert header["magic"] == TRACE_MAGIC
        assert header["format_version"] == TRACE_FORMAT_VERSION
        # The header's length table accounts for every column byte: one
        # zlib section each for the pcs, the masks and the aux stream.
        lengths = [w for lt in header["launches"] for w in lt["warps"]]
        records = sum(n for _b, _w, n, _m in lengths)
        assert records == program.record_count
        expected = [4 * records, 8 * records, 8 * sum(m for *_, m in lengths)]
        assert sum(header["sections"]) == len(packed)
        offset = 0
        for size, raw_size in zip(header["sections"], expected):
            assert len(zlib.decompress(packed[offset:offset + size])) == raw_size
            offset += size
        assert len(packed) < sum(expected) / 10
        assert int.from_bytes(crc, "big") == zlib.crc32(blob[:-4])

    def test_version_bump_rejected(self, config):
        _, program = _record(config=config)
        header, packed, _ = split_sections(program.to_bytes())
        header["format_version"] = TRACE_FORMAT_VERSION + 1
        with pytest.raises(TraceFormatError, match="version"):
            TraceProgram.from_bytes(join_sections(header, packed))

    def test_bad_magic_rejected(self):
        blob = join_sections({"magic": "nope", "format_version": 2}, b"")
        with pytest.raises(TraceFormatError, match="magic"):
            TraceProgram.from_bytes(blob)

    def test_garbage_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceProgram.from_bytes(b"not a zlib stream at all")

    def test_kernel_fingerprint_stability(self, config):
        _, program = _record(config=config)
        launch = program.launches[0]
        assert launch.kernel_fp == kernel_fingerprint(launch.kernel)
        loaded = TraceProgram.from_bytes(program.to_bytes())
        assert loaded.launches[0].kernel_fp == launch.kernel_fp


# ----------------------------------------------------------------------
# Persistent trace store
# ----------------------------------------------------------------------
class TestStore:
    def test_save_load_round_trip(self, tmp_path, config):
        _, program = _record(config=config)
        path = trace_mod.store_program(program, "bfs", SCALE, config)
        assert path is not None and path.exists()
        loaded = trace_mod.load_program("bfs", SCALE, config)
        assert loaded is not None
        assert loaded.trace_id == program.trace_id

    def test_miss_returns_none(self, config):
        assert trace_mod.load_program("bfs", SCALE, config) is None

    def test_corrupt_file_evicted(self, config):
        _, program = _record(config=config)
        path = trace_mod.store_program(program, "bfs", SCALE, config)
        path.write_bytes(path.read_bytes()[:32])
        assert trace_mod.load_program("bfs", SCALE, config) is None
        assert not path.exists(), "corrupt trace must be unlinked"

    def test_timing_knobs_share_one_trace(self, config):
        """The store key uses the functional fingerprint only: scheduler
        and cache-size changes must map to the same trace file."""
        import dataclasses

        from repro.core.cawa import apply_scheme

        cawa_cfg = apply_scheme(config, "cawa")
        small_l1 = dataclasses.replace(
            config, l1d=dataclasses.replace(config.l1d, ways=2)
        )
        assert (
            trace_mod.trace_path("bfs", SCALE, config)
            == trace_mod.trace_path("bfs", SCALE, cawa_cfg)
            == trace_mod.trace_path("bfs", SCALE, small_l1)
        )

    def test_functional_knobs_split_traces(self, config):
        import dataclasses

        other = dataclasses.replace(
            config,
            l1d=dataclasses.replace(config.l1d, line_size=config.l1d.line_size * 2),
        )
        assert (
            trace_mod.trace_path("bfs", SCALE, config)
            != trace_mod.trace_path("bfs", SCALE, other)
        )

    def test_list_and_clear(self, config):
        _, program = _record(config=config)
        path = trace_mod.store_program(program, "bfs", SCALE, config)
        assert trace_store.stats()["entries"] == 1
        assert path == trace_mod.trace_path("bfs", SCALE, config)
        assert trace_mod.clear() == 1
        assert trace_store.stats()["entries"] == 0


# ----------------------------------------------------------------------
# Staleness guards at replay time
# ----------------------------------------------------------------------
class TestGuards:
    def test_fingerprint_mismatch(self, config):
        _, program = _record(config=config)
        foreign = dataclasses.replace(program, functional_fingerprint="0" * 16)
        with pytest.raises(TraceMismatchError, match="fingerprint"):
            trace_mod.replay_program(foreign, config)

    def test_gpu_replays_iff_handed_a_trace(self, config, monkeypatch):
        """A GPU records each launch in place unless it is handed
        ``trace=`` — and one that replays runs no functional pass."""
        from repro import GPU
        from repro.trace import functional as functional_mod
        from repro.workloads import make_workload

        passes = []
        record_launch = functional_mod.record_launch
        monkeypatch.setattr(
            functional_mod, "record_launch",
            lambda *a, **k: passes.append(a[0].name) or record_launch(*a, **k))
        _, program = _record(config=config)
        assert passes == []  # the recorder holds its own reference
        launch = program.launches[0]
        recording, replaying = GPU(config), GPU(config, trace=program)
        assert recording.sms[0].executor is replaying.sms[0].executor is None
        spec = make_workload("bfs", scale=SCALE).build(recording)
        in_place = recording.launch(spec.kernel, spec.grid_dim, spec.block_dim)
        assert passes.pop() == launch.kernel.name and not passes
        assert spec.verify(recording)
        assert (in_place.frontend, in_place.trace_id) == ("execute", None)
        result = replaying.launch(
            launch.kernel, launch.grid_dim, launch.block_dim)
        assert not passes
        assert result.frontend == "trace"
        assert result.trace_id == program.trace_id
        assert result.cycles == in_place.cycles

    def test_trace_exhausted(self, config):
        from repro import GPU

        _, program = _record(config=config)
        gpu = GPU(config, trace=program)
        launch = program.launches[0]
        gpu.launch(launch.kernel, launch.grid_dim, launch.block_dim)
        with pytest.raises(TraceMismatchError, match="exhausted"):
            gpu.launch(launch.kernel, launch.grid_dim, launch.block_dim)

    def test_geometry_mismatch(self, config):
        from repro import GPU

        _, program = _record(config=config)
        gpu = GPU(config, trace=program)
        launch = program.launches[0]
        with pytest.raises(TraceMismatchError, match="geometry"):
            gpu.launch(launch.kernel, launch.grid_dim + 1, launch.block_dim)

    def test_kernel_mismatch(self, config):
        from repro import GPU
        from tests.conftest import build_copy_kernel

        _, program = _record(config=config)
        launch = program.launches[0]
        gpu = GPU(config, trace=program)
        other = build_copy_kernel(8, 0, 4096)
        with pytest.raises(TraceMismatchError, match="kernel"):
            gpu.launch(other, launch.grid_dim, launch.block_dim)


# ----------------------------------------------------------------------
# Runner integration: auto-record on miss, replay on hit
# ----------------------------------------------------------------------
class TestRunnerIntegration:
    def test_miss_records_then_hit_replays(self, config):
        first = runner.run_scheme("bfs", "rr", scale=SCALE, config=config,
                                  use_cache=False, persistent=False)
        assert first.frontend == "trace" and first.recorded
        assert first.trace_id is not None
        second = runner.run_scheme("bfs", "gto", scale=SCALE, config=config,
                                   use_cache=False, persistent=False)
        assert second.frontend == "trace" and not second.recorded
        assert second.trace_id == first.trace_id

    def test_replay_matches_plain_gpu(self, config):
        """The runner replays; ``run_in_place`` is the reference that never
        touches the store."""
        runner.run_scheme("bfs", "rr", scale=SCALE, config=config,
                          use_cache=False, persistent=False)  # record
        rep = runner.run_scheme("bfs", "cawa", scale=SCALE, config=config,
                                use_cache=False, persistent=False)
        ex = run_in_place("bfs", "cawa", SCALE, config)
        assert rep.frontend == "trace" and rep.trace_id is not None
        assert ex.frontend == "execute" and ex.trace_id is None
        assert rep.cycles == ex.cycles
        assert rep.l1_stats.misses == ex.l1_stats.misses
        assert rep.dram_accesses == ex.dram_accesses

    def test_accuracy_observer_rides_replay(self, config):
        runner.run_scheme("bfs", "rr", scale=SCALE, config=config,
                          use_cache=False, persistent=False)  # record
        accuracy = runner.cell_report("bfs", "cawa", SCALE, config,
                                      CriticalityAccuracyTracker)
        rep = runner.run_scheme("bfs", "cawa", scale=SCALE, config=config)
        assert rep.frontend == "trace" and not rep.recorded
        assert 0.0 <= accuracy <= 1.0

    def test_clear_cache_disk_wipes_traces(self, config):
        runner.run_scheme("bfs", "rr", scale=SCALE, config=config,
                          use_cache=False, persistent=False)
        assert trace_store.stats()["entries"] == 1
        runner.clear_cache(disk=True)
        assert trace_store.stats()["entries"] == 0


# ----------------------------------------------------------------------
# Satellite: RunResult serialization carries provenance
# ----------------------------------------------------------------------
class TestResultProvenance:
    def test_dict_round_trip(self, config):
        _, program = _record(config=config)
        rep = trace_mod.replay_program(program, config)[0]
        data = rep.to_dict()
        assert data["frontend"] == "trace"
        assert data["trace_id"] == program.trace_id
        back = RunResult.from_dict(data)
        assert back.frontend == "trace"
        assert back.trace_id == program.trace_id
        assert back.cycles == rep.cycles

    def test_legacy_dict_defaults(self):
        """PR-1 cache entries (no frontend/trace_id keys) still load."""
        _, program = _record()
        rep = trace_mod.replay_program(program, GPUConfig.default_sim())[0]
        data = rep.to_dict()
        del data["frontend"]
        del data["trace_id"]
        back = RunResult.from_dict(data)
        assert back.frontend == "execute"
        assert back.trace_id is None
