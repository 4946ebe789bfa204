"""Tests for the reference SIMT reconvergence stack (``tests/reference/stack.py``)."""

import pytest

from repro.errors import SimulationError
from repro.trace.functional import NO_RECONV
from tests.reference import SIMTStack, StackEntry


def test_initial_state():
    stack = SIMTStack(entry_pc=0, mask=0xF)
    assert stack.pc == 0
    assert stack.active_mask == 0xF
    assert stack.depth == 1
    assert not stack.empty


def test_advance_moves_pc():
    stack = SIMTStack(0, 0xF)
    stack.advance(5)
    assert stack.pc == 5
    assert stack.depth == 1


def test_diverge_executes_fallthrough_first():
    stack = SIMTStack(0, 0b1111)
    # Branch at pc 0: lanes 0-1 take to pc 10, lanes 2-3 fall through to 1;
    # reconvergence at pc 20.
    stack.diverge(taken_pc=10, fallthrough_pc=1, taken_mask=0b0011, reconv_pc=20)
    assert stack.pc == 1
    assert stack.active_mask == 0b1100
    assert stack.depth == 3


def test_reconvergence_merges_masks():
    stack = SIMTStack(0, 0b1111)
    stack.diverge(10, 1, 0b0011, reconv_pc=20)
    # Fall-through path runs to the reconvergence point.
    stack.advance(20)
    # Now the taken path executes.
    assert stack.pc == 10
    assert stack.active_mask == 0b0011
    stack.advance(20)
    # Both paths done: merged mask, at reconv point.
    assert stack.pc == 20
    assert stack.active_mask == 0b1111
    assert stack.depth == 1


def test_loop_exit_branch_taken_path_parks_at_reconv():
    # Loop-exit branches target the reconvergence point itself: exiting
    # lanes wait there while the rest keep looping.
    stack = SIMTStack(5, 0b1111)
    stack.diverge(taken_pc=30, fallthrough_pc=6, taken_mask=0b1000, reconv_pc=30)
    assert stack.pc == 6
    assert stack.active_mask == 0b0111
    stack.advance(30)  # remaining lanes reach the loop end
    assert stack.pc == 30
    assert stack.active_mask == 0b1111
    assert stack.depth == 1


def test_nested_divergence():
    stack = SIMTStack(0, 0b1111)
    stack.diverge(10, 1, 0b0011, reconv_pc=20)  # outer
    stack.diverge(5, 2, 0b0100, reconv_pc=8)  # inner split of lanes 2-3
    assert stack.pc == 2
    assert stack.active_mask == 0b1000
    stack.advance(8)
    assert stack.pc == 5
    assert stack.active_mask == 0b0100
    stack.advance(8)
    assert stack.pc == 8
    assert stack.active_mask == 0b1100
    stack.advance(20)  # outer fall-through done
    assert stack.pc == 10
    assert stack.active_mask == 0b0011


def test_uniform_diverge_rejected():
    stack = SIMTStack(0, 0b1111)
    with pytest.raises(SimulationError):
        stack.diverge(10, 1, 0b1111, reconv_pc=20)
    with pytest.raises(SimulationError):
        stack.diverge(10, 1, 0, reconv_pc=20)


def test_kill_lanes_removes_from_all_entries():
    stack = SIMTStack(0, 0b1111)
    stack.diverge(10, 1, 0b0011, reconv_pc=20)
    stack.kill_lanes(0b1100)  # kill the currently-executing fall-through set
    # The fall-through entry died; execution moves to the taken path.
    assert stack.active_mask == 0b0011
    assert stack.pc == 10


def test_empty_after_all_lanes_killed():
    stack = SIMTStack(0, 0b11)
    stack.kill_lanes(0b11)
    assert stack.empty


def test_snapshot_is_a_copy():
    stack = SIMTStack(0, 0b1)
    snap = stack.snapshot()
    snap[0].pc = 99
    assert stack.pc == 0
