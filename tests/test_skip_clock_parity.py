"""The skip loop against per-cycle stepping, checked on every tick.

The device loop (:meth:`repro.gpu.gpu.GPU._run_skip_loop`) ticks an SM
only at the wake its previous tick reported and jumps over every other
cycle.  It agrees with a loop that ticks every SM on every cycle exactly
when nothing could have happened on an SM in the cycles it skipped.
:class:`~tests.oracles.SkipOracle` checks that directly, from scratch, on
every tick of every cell below: no RUNNING warp of the SM could have
issued since its previous tick, and nothing but a dispatch changed the SM
in between.

A fast subset runs in tier 1, on a plain GPU (which records each launch in
place) and on a stored-trace replay; every workload x scheme is marked
``slow``.  The mutation tests at the end break the loop's wake bookkeeping
on purpose and require the oracle to name the broken invariant.
"""

import math

import pytest

from repro import GPU
from repro import trace as trace_mod
from repro.config import GPUConfig
from repro.core.cawa import SCHEMES, apply_scheme
from repro.experiments.runner import build_oracle, clear_cache, run_scheme
from repro.workloads import make_workload, workload_names
from tests.oracles import SkipOracle

#: ISSUE grid {lrr, gto, caws, cawa}; round-robin is registered as "rr".
GRID_SCHEMES = ["rr", "gto", "caws", "cawa"]
SCALE = 0.25
#: A cell with dispatch waves: 8 blocks of 8 warps against the default
#: device's 2 SMs x 16 warps (at scale 1.0 its 4 blocks all fit at once).
DISPATCH_WAVE = ("strcltr_mid", "rr", 2.0)

_PROGRAMS = {}


def _program(workload, scale=SCALE):
    """Record each workload once per session; every scheme replays it."""
    key = (workload, scale)
    if key not in _PROGRAMS:
        _, program = trace_mod.record_workload(
            workload, scale=scale, config=GPUConfig.default_sim()
        )
        _PROGRAMS[key] = program
    return _PROGRAMS[key]


def _plain(workload, scheme, scale=SCALE):
    """One cell on a plain GPU: built, recorded in place, launched."""
    if scheme == "caws":
        clear_cache()
    cfg = GPUConfig.default_sim().with_frontend("execute")
    return run_scheme(workload, scheme, scale=scale, config=cfg,
                      use_cache=False, persistent=False)


def _replay(workload, scheme, scale=SCALE):
    """One cell replayed from the workload's stored trace."""
    cfg = apply_scheme(GPUConfig.default_sim(), scheme)
    oracle = None
    if cfg.scheduler_name == "caws":
        clear_cache()
        oracle = build_oracle(workload, scale, GPUConfig.default_sim())
    return trace_mod.replay_program(
        _program(workload, scale), cfg, scheme=scheme, oracle=oracle
    )[-1]


@pytest.fixture
def oracles(monkeypatch):
    """Every GPU the test launches runs under a :class:`SkipOracle`."""
    return SkipOracle.on_every_launch(monkeypatch)


def _assert_checked(oracles, result):
    """The oracle saw the run, including ticks after a skipped gap."""
    assert result.cycles > 0
    assert sum(o.ticks for o in oracles) > 0
    assert sum(o.jumps for o in oracles) > 0
    assert sum(o.warps_checked for o in oracles) > 0


class TestSkipParityFast:
    """Tier-1 subset: one Sens workload across the grid schemes, plus the
    barrier, divergence and dispatch-wave paths."""

    @pytest.mark.parametrize("scheme", GRID_SCHEMES)
    def test_execute_frontend(self, oracles, scheme):
        _assert_checked(oracles, _plain("synthetic_imbalance", scheme))

    @pytest.mark.parametrize("scheme", GRID_SCHEMES)
    def test_trace_frontend(self, oracles, scheme):
        _assert_checked(oracles, _replay("synthetic_imbalance", scheme))

    def test_barrier_workload(self, oracles):
        # kmeans exercises block-wide barriers (barrier wake path) and
        # multi-launch resume: one oracle follows each SM across launches.
        _assert_checked(oracles, _plain("kmeans", "cawa", scale=0.125))

    def test_divergent_workload(self, oracles):
        _assert_checked(oracles, _plain("synthetic_divergence", "gto"))

    def test_dispatch_wave_workload(self, oracles):
        # More blocks than the device can co-host, so commits trigger
        # mid-run dispatches — the only cross-SM wake source.
        _assert_checked(oracles, _plain(*DISPATCH_WAVE))
        assert sum(o.dispatches for o in oracles) > 0


@pytest.mark.slow
class TestSkipParityFullGrid:
    """Every workload x grid scheme, replayed from its stored trace at
    scale 1.0, where eight workloads have more blocks than the device
    co-hosts: the grid covers dispatch waves too."""

    @pytest.mark.parametrize("workload", workload_names())
    @pytest.mark.parametrize("scheme", GRID_SCHEMES)
    def test_grid_cell(self, oracles, workload, scheme):
        _assert_checked(oracles, _replay(workload, scheme, scale=1.0))


def test_all_grid_schemes_are_real():
    assert set(GRID_SCHEMES) <= set(SCHEMES)


# ----------------------------------------------------------------------
# Mutations: a loop that ticks an SM late must be caught
# ----------------------------------------------------------------------
def _dispatch_wave(wrap=None, checked=False):
    """The dispatch-wave cell on a plain GPU; ``wrap(gpu)`` breaks it first,
    then a :class:`SkipOracle` (if ``checked``) wraps what ``wrap`` left.
    Returns per-warp execution times: the schedule."""
    workload, scheme, scale = DISPATCH_WAVE
    gpu = GPU(apply_scheme(GPUConfig.default_sim(), scheme))
    if wrap is not None:
        wrap(gpu)
    if checked:
        SkipOracle(gpu)
    spec = make_workload(workload, scale=scale).build(gpu)
    result = gpu.launch(spec.kernel, spec.grid_dim, spec.block_dim, scheme=scheme)
    return [tuple(block.warp_execution_times()) for block in result.blocks]


def _late_tick_wake(gpu):
    """Every finite wake a tick reports comes one cycle late."""
    for sm in gpu.sms:
        def tick_wake(now, real=sm.tick_wake):
            issued, wake = real(now)
            return issued, wake if wake == math.inf else wake + 1.0

        sm.tick_wake = tick_wake


def _overestimated_refresh(gpu):
    """After the launch's set-up (which asks at its first cycle,
    ``gpu.now``) ``next_wake_time`` answers one cycle later than the loop
    would have ticked the SM: every dispatch refresh schedules an SM that
    received warps too late."""
    for sm in gpu.sms:
        def next_wake_time(now, real=sm.next_wake_time):
            wake = real(now)
            if wake == math.inf or now == gpu.now:
                return wake
            return max(wake, now + 1.0) + 1.0

        sm.next_wake_time = next_wake_time


def _cross_sm_write(gpu):
    """Each tick of SM0 books a fill in SM1's MSHR file: a cross-SM waker
    the sufficiency argument says does not exist."""
    sm0, sm1 = gpu.sms
    line = iter(range(1 << 40, 1 << 41, 128))

    def tick_wake(now, real=sm0.tick_wake):
        sm1.mshr.register(next(line), now + 500.0, now)
        return real(now)

    sm0.tick_wake = tick_wake


class TestOracleCatchesMutations:
    @pytest.fixture(scope="class")
    def schedule(self):
        return _dispatch_wave()

    def test_the_oracle_only_observes(self, schedule):
        assert _dispatch_wave(checked=True) == schedule

    @pytest.mark.parametrize("mutation", [_late_tick_wake, _overestimated_refresh])
    def test_late_wake_is_a_missed_issue(self, schedule, mutation):
        # The mutation moves the schedule, so it is one to catch ...
        assert _dispatch_wave(mutation) != schedule
        # ... and the oracle names the invariant it breaks.
        with pytest.raises(AssertionError, match="missed issue"):
            _dispatch_wave(mutation, checked=True)

    def test_cross_sm_write_breaks_frozen_state(self, schedule):
        assert _dispatch_wave(_cross_sm_write) != schedule
        with pytest.raises(AssertionError, match="frozen state: SM1 .* MSHR fills changed"):
            _dispatch_wave(_cross_sm_write, checked=True)
