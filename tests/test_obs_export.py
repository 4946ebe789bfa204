"""Chrome-trace / CSV export tests: structure, determinism, golden output.

The Chrome Trace Format export must be loadable by Perfetto: a dict with a
``traceEvents`` list whose entries carry ``ph``/``pid``/``tid``/``ts``,
process/thread naming metadata, duration slices for issues and stalls, and
instants for memory events.  Byte determinism (same multiset of events →
identical file, regardless of input order) is what makes the
replayed-vs-in-place stream-equality cells
(``test_obs_parity.py``) meaningful, so it is pinned here on synthetic
streams, including a full golden file.
"""

import json

from repro.obs import Ev, KindCounter, Stall, chrome_trace, events_csv, write_chrome_trace
from repro.obs.export import DEVICE_PID, MEM_TID

EVENTS = [
    (int(Ev.WARP_START), 0.0, 0, 0, 0),
    (int(Ev.WARP_ISSUE), 1.0, 0, 0, 0, 4, "ADD"),
    (int(Ev.WARP_STALL), 5.0, 0, 0, 0, int(Stall.MEM_PENDING), 3.0, 2.0),
    (int(Ev.WARP_ISSUE), 5.0, 0, 0, 0, 8, "LD"),
    (int(Ev.CACHE_MISS), 5.0, 0, 0, 8, 0x80, 1, 0, 0),
    (int(Ev.MSHR_ALLOC), 5.0, 0, 0x80, 205.0, 1),
    (int(Ev.L2_BANK), 6.0, 0, 2, 0, 0.0),
    (int(Ev.DRAM_ENQ), 16.0, 0, 0.0),
    (int(Ev.DRAM_SERVICE), 16.0, 0, 216.0),
    (int(Ev.CACHE_FILL), 5.0, 0, 0, 0x80, 1, 0, 0),
    (int(Ev.WARP_FINISH), 220.0, 0, 0, 0),
    (int(Ev.WARP_ISSUE), 2.0, 1, 3, 1, 4, "ADD"),
]


class TestChromeTrace:
    def doc(self):
        return chrome_trace(EVENTS)

    def test_top_level_shape(self):
        doc = self.doc()
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"

    def test_process_and_thread_metadata(self):
        doc = self.doc()
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["pid"], e["args"]["name"]) for e in metas}
        assert ("process_name", 1, "SM 0") in names
        assert ("process_name", 2, "SM 1") in names
        assert ("thread_name", 1, "mem") in names
        assert ("thread_name", 1, "b0/w0") in names
        assert ("thread_name", 2, "b3/w1") in names

    def test_issue_becomes_duration_slice(self):
        doc = self.doc()
        slices = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e.get("cat") == "issue"]
        assert len(slices) == 3
        add = slices[0]
        assert add["name"] == "ADD" and add["dur"] == 1
        assert add["pid"] == 1 and add["tid"] >= 1

    def test_stall_slice_spans_interval(self):
        doc = self.doc()
        stall = next(e for e in doc["traceEvents"] if e.get("cat") == "stall")
        assert stall["name"] == "mem_pending"
        assert stall["ts"] == 2.0 and stall["dur"] == 3.0

    def test_mem_events_are_instants_on_mem_track(self):
        doc = self.doc()
        instants = [e for e in doc["traceEvents"]
                    if e["ph"] == "i" and e.get("cat") == "mem"]
        assert instants and all(e["tid"] == MEM_TID for e in instants)
        miss = next(e for e in instants if "MISS" in e["name"])
        assert miss["name"] == "L1D_MISS"
        assert miss["args"]["line_addr"] == 0x80

    def test_no_pid_zero_and_device_pid_reserved(self):
        doc = self.doc()
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert 0 not in pids
        assert DEVICE_PID not in pids  # no sm == -1 events in this sample

    def test_json_serializable(self):
        json.dumps(self.doc())


class TestDeterminism:
    def test_input_order_does_not_matter(self, tmp_path):
        a = write_chrome_trace(EVENTS, tmp_path / "a.json")
        b = write_chrome_trace(list(reversed(EVENTS)), tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_golden_single_event_export(self, tmp_path):
        """Exact serialized bytes for a one-event stream (format pin).

        If this breaks, the Chrome export format changed: bump consumers
        (CI artifact diffing, docs/observability.md examples) deliberately.
        """
        path = write_chrome_trace(
            [(int(Ev.WARP_ISSUE), 1.0, 0, 0, 0, 4, "ADD")], tmp_path / "g.json"
        )
        golden = (
            '{"displayTimeUnit":"ms","otherData":{"cycles_per_us":1,'
            '"source":"repro.obs"},"traceEvents":['
            '{"args":{"name":"SM 0"},"name":"process_name","ph":"M","pid":1,"tid":0},'
            '{"args":{"name":"mem"},"name":"thread_name","ph":"M","pid":1,"tid":0},'
            '{"args":{"name":"b0/w0"},"name":"thread_name","ph":"M","pid":1,"tid":1},'
            '{"args":{"pc":4},"cat":"issue","dur":1,"name":"ADD","ph":"X",'
            '"pid":1,"tid":1,"ts":1.0}]}\n'
        )
        assert path.read_text(encoding="utf-8") == golden


class TestCsvAndCounts:
    def test_csv_header_and_rows(self):
        text = events_csv(EVENTS)
        lines = text.strip().splitlines()
        assert lines[0].startswith("kind,cycle,sm,")
        assert len(lines) == 1 + len(EVENTS)
        assert any("WARP_ISSUE" in line for line in lines[1:])

    def test_kind_counts(self):
        counter = KindCounter()
        for ev in EVENTS:
            counter.append(ev)
        counts = counter.named()
        assert counts["WARP_ISSUE"] == 3
        assert counts["CACHE_MISS"] == 1
