"""Tests for the warp register file and its scoreboard."""

import numpy as np

from repro.simt.registers import WarpRegisterFile


def make_rf():
    return WarpRegisterFile(num_regs=8, num_preds=2, warp_size=32)


def write_reg(rf, reg, cycle, from_load=False):
    """The scoreboard write the SM's issue path makes for a register."""
    rf.reg_ready[reg] = cycle
    rf.reg_from_load[reg] = from_load


class TestValues:
    def test_write_respects_mask(self):
        rf = make_rf()
        mask = np.zeros(32, dtype=bool)
        mask[:4] = True
        rf.write(0, np.full(32, 9.0), mask)
        assert np.all(rf.read(0)[:4] == 9.0)
        assert np.all(rf.read(0)[4:] == 0.0)

    def test_pred_write_respects_mask(self):
        rf = make_rf()
        mask = np.zeros(32, dtype=bool)
        mask[::2] = True
        rf.write_pred(0, np.ones(32, dtype=bool), mask)
        assert np.array_equal(rf.read_pred(0), mask)


class TestScoreboard:
    def test_operands_ready_takes_max(self):
        rf = make_rf()
        write_reg(rf, 0, 10.0)
        write_reg(rf, 1, 20.0)
        assert rf.operands_ready_at((0, 1), None, None) == 20.0

    def test_dst_waw_counts(self):
        rf = make_rf()
        write_reg(rf, 2, 30.0)
        assert rf.operands_ready_at((0,), 2, None) == 30.0

    def test_pred_operand_counts(self):
        rf = make_rf()
        rf.pred_ready[1] = 15.0
        assert rf.operands_ready_at((), None, 1) == 15.0

    def test_pred_dst_uses_pred_board(self):
        rf = make_rf()
        rf.pred_ready[0] = 40.0
        assert rf.operands_ready_at((), 0, None, pred_is_dst=True) == 40.0

    def test_detail_reports_load_provenance(self):
        rf = make_rf()
        write_reg(rf, 0, 50.0, from_load=True)
        write_reg(rf, 1, 10.0, from_load=False)
        ready, by_load = rf.operands_ready_detail((0, 1), None, None)
        assert ready == 50.0 and by_load

    def test_detail_alu_limited(self):
        rf = make_rf()
        write_reg(rf, 0, 5.0, from_load=True)
        write_reg(rf, 1, 60.0, from_load=False)
        ready, by_load = rf.operands_ready_detail((0, 1), None, None)
        assert ready == 60.0 and not by_load

    def test_load_flag_cleared_by_alu_write(self):
        rf = make_rf()
        write_reg(rf, 0, 50.0, from_load=True)
        write_reg(rf, 0, 60.0, from_load=False)
        ready, by_load = rf.operands_ready_detail((0,), None, None)
        assert ready == 60.0 and not by_load

    def test_pred_limited_is_not_load(self):
        rf = make_rf()
        write_reg(rf, 0, 5.0, from_load=True)
        rf.pred_ready[0] = 99.0
        ready, by_load = rf.operands_ready_detail((0,), None, 0)
        assert ready == 99.0 and not by_load
