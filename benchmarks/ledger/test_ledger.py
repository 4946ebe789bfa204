"""Fast checks of the ledger's own machinery (no simulation).

    python3 -m pytest benchmarks/ledger/test_ledger.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import compare  # noqa: E402
from hostspeed import NOMINAL_CAL_S, SpeedSampler  # noqa: E402
from spans import Tracer, shadow  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---- span-stack arithmetic ---------------------------------------------
def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(2.0)

    traced_leaf = tracer.wrap(leaf, "leaf")

    def parent():
        clock.advance(1.0)
        traced_leaf()
        traced_leaf()
        clock.advance(0.5)

    tracer.cell = "c"
    tracer.wrap(parent, "parent")()
    assert tracer.total("parent") == pytest.approx(1.5)
    assert tracer.total("leaf") == pytest.approx(4.0)
    assert tracer.total("leaf", "calls") == 2
    assert tracer.layer_self_total() == pytest.approx(5.5)
    assert tracer._stack == []


def test_recursive_calls_count_each_level_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def descend(depth):
        clock.advance(1.0)
        if depth:
            traced(depth - 1)

    traced = tracer.wrap(descend, "rec")
    traced(3)
    # Four levels, one second of own work each: no level's time counted twice.
    assert tracer.total("rec") == pytest.approx(4.0)
    assert tracer.total("rec", "calls") == 4


def test_exception_in_wrapped_call_still_pops():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    def outer():
        clock.advance(1.0)
        with pytest.raises(KeyError):
            traced_boom()
        clock.advance(1.0)

    traced_boom = tracer.wrap(boom, "boom")
    tracer.wrap(outer, "outer")()
    assert tracer._stack == []
    assert tracer.total("boom") == pytest.approx(1.0)
    assert tracer.total("boom", "calls") == 1
    assert tracer.total("outer") == pytest.approx(2.0)


def test_coarse_spans_share_the_stack_and_record_parents():
    clock = FakeClock()
    tracer = Tracer(clock)
    work = tracer.wrap(lambda: clock.advance(3.0), "work")
    with tracer.span("cell", which="a") as outer:
        clock.advance(1.0)
        with tracer.span("phase") as inner:
            work()
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["self_s"] == pytest.approx(1.0)
    assert inner["self_s"] == pytest.approx(0.0)
    # Layer self times plus the spans' own remainders account for the wall.
    accounted = tracer.layer_self_total() + sum(s["self_s"] for s in tracer.spans)
    assert accounted == pytest.approx(outer["end"] - outer["start"])
    events = tracer.chrome_events(origin=0.0)
    assert [e["name"] for e in events] == ["cell", "phase"]
    assert events[1]["args"]["parent"] == outer["id"]


def test_excluded_seconds_leave_every_self_time():
    clock = FakeClock()
    tracer = Tracer(clock)

    def interrupted():
        clock.advance(1.0)
        clock.advance(0.25)          # the sampler's slice lands here ...
        tracer.exclude(0.25)         # ... and reports itself
        clock.advance(1.0)

    with tracer.span("cell") as cell:
        tracer.wrap(interrupted, "work")()
    assert tracer.total("work") == pytest.approx(2.0)
    assert cell["self_s"] == pytest.approx(0.0)
    assert tracer.excluded_s == pytest.approx(0.25)


def test_aggregates_are_kept_per_cell():
    clock = FakeClock()
    tracer = Tracer(clock)
    work = tracer.wrap(lambda: clock.advance(1.0), "work")
    for cell, times in (("a", 1), ("b", 3)):
        tracer.cell = cell
        for _ in range(times):
            work()
    assert tracer.total("work", "calls", cell="a") == 1
    assert tracer.total("work", cell="b") == pytest.approx(3.0)
    assert tracer.total("work", "calls") == 4


# ---- wrappers leave the program alone ----------------------------------
class Scheduler:
    def __init__(self):
        self.picked = []

    def select(self, ready, now=0.0):
        self.picked.append(now)
        return ready[0] if ready else None


def test_shadow_keeps_return_values_bound_self_and_the_class():
    tracer = Tracer(FakeClock())
    wrapped, plain = Scheduler(), Scheduler()
    assert shadow(tracer, wrapped, "select", "scheduling.select",
                  count=lambda result: result is None)
    assert wrapped.select(["w0", "w1"], now=5.0) == "w0"
    assert wrapped.select([]) is None
    assert wrapped.picked == [5.0, 0.0]          # ran against its own instance
    assert "select" not in vars(plain)            # class and siblings untouched
    assert plain.select(["x"]) == "x"
    assert tracer.total("scheduling.select", "calls") == 2
    assert tracer.total("scheduling.select", "counted") == 1


def test_shadow_skips_what_is_not_there():
    class Slotted:
        __slots__ = ()

        def tick(self):
            return True

    tracer = Tracer(FakeClock())
    assert not shadow(tracer, Scheduler(), "no_such_method", "x")
    assert not shadow(tracer, Slotted(), "tick", "x")


# ---- host-speed correction ---------------------------------------------
def test_corrected_seconds_scale_with_measured_speed():
    sampler = SpeedSampler(clock=FakeClock())
    sampler.starts = [0.0, 1.0, 2.0, 3.0]
    sampler.durations = [2 * NOMINAL_CAL_S] * 4     # host at half nominal speed
    inside = 2 * (2 * NOMINAL_CAL_S)                # slices at t=1 and t=2
    assert sampler.corrected(0.5, 2.5) == pytest.approx((2.0 - inside) / 2)
    assert sampler.host_speed() == pytest.approx(2.0)


# ---- compare.py verdicts -----------------------------------------------
@pytest.mark.parametrize("better,new,expected", [
    ("lower", 109.0, "ok"),          # 9% slower, bound 10%
    ("lower", 110.9, "worse"),       # just past the bound
    ("lower", 50.0, "ok"),           # better is never worse
    ("higher", 91.0, "ok"),
    ("higher", 89.0, "worse"),
    ("higher", 150.0, "ok"),
])
def test_verdict_around_the_bound(better, new, expected):
    base = [99.0, 100.0, 101.0]
    assert compare.verdict(base, [new - 1, new, new + 1], better, 0.10) == expected


def test_verdict_is_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert compare.verdict(noisy, [85.0, 105.0, 125.0, 95.0, 115.0], "lower", 0.10) == "unresolved"
    # ... unless every new run beats every base run, or loses to each by more than the bound.
    assert compare.verdict(noisy, [60.0, 70.0, 79.0], "lower", 0.10) == "ok"
    assert compare.verdict(noisy, [140.0, 150.0, 131.0], "lower", 0.10) == "worse"
    assert compare.verdict(noisy, [121.0, 125.0, 129.0], "lower", 0.10) == "unresolved"


def test_spread_uses_quartiles_from_four_runs():
    assert compare.spread([100.0]) == 0.0
    assert compare.spread([90.0, 110.0]) == pytest.approx(0.2)
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert compare.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_compare_exit_status(tmp_path):
    def run_file(path, wall):
        path.write_text(json.dumps({"results": [{
            "workload": "narrow_figs", "trace": 0, "metrics": {"wall_s": wall}}]}))
        return str(path)

    base = ",".join(run_file(tmp_path / f"a{i}.json", w) for i, w in enumerate((10.0, 10.1, 9.9)))
    same = ",".join(run_file(tmp_path / f"b{i}.json", w) for i, w in enumerate((10.2, 10.0, 10.1)))
    slow = ",".join(run_file(tmp_path / f"c{i}.json", w) for i, w in enumerate((14.0, 14.1, 13.9)))
    assert compare.main([base, same]) == 0
    assert compare.main([base, slow]) == 1


# ---- BENCHMARK.json and the catalogue stay in step -----------------------
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_matches_the_catalogue_and_list_output():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    listed = subprocess.run([sys.executable, str(HERE / "run.py"), "--list"],
                            capture_output=True, text=True, check=True).stdout
    names = ([w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
        assert re.search(rf"(^|\s){re.escape(name)}[\s:]", listed), f"{name} not printed by --list"
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert ([(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
            == [(m.name, m.unit, m.better, m.bound) for m in catalog.END_TO_END])
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [(m.name, m.unit, m.better) for m in catalog.PER_LAYER])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
