"""Embedded PPC DSL: parallel variables, masking, primitives, accounting."""

import numpy as np
import pytest

from repro.errors import VariableError
from repro.ppa import Direction, PPAConfig, PPAMachine
from repro.ppc.dsl import ParallelInt, ParallelLogical, PPCEnvironment


@pytest.fixture
def env():
    return PPCEnvironment(PPAMachine(PPAConfig(n=4, word_bits=16)))


class TestDeclarations:
    def test_parallel_int_scalar_init(self, env):
        a = env.parallel_int(init=7)
        assert (a.value == 7).all()
        assert a.value.dtype == np.int64

    def test_parallel_int_grid_init(self, env):
        grid = np.arange(16).reshape(4, 4)
        assert np.array_equal(env.parallel_int(init=grid).value, grid)

    def test_parallel_logical(self, env):
        f = env.parallel_logical(init=True)
        assert f.value.all() and f.value.dtype == np.bool_

    def test_row_vector_init_is_c_contiguous(self, env):
        """A row vector broadcast over the grid is copied in C order, not
        column-major as its broadcast view's strides would give."""
        a = env.parallel_int(init=np.arange(4))
        f = env.parallel_logical(init=np.array([True, False, True, False]))
        assert a.data.flags.c_contiguous and f.data.flags.c_contiguous
        assert np.array_equal(a.value, np.tile(np.arange(4), (4, 1)))

    def test_named_registration_shares_storage(self, env):
        a = env.parallel_int("A", init=1)
        a.assign(5)
        assert (env.machine.memory.read("A") == 5).all()

    def test_duplicate_name_rejected(self, env):
        env.parallel_int("A")
        with pytest.raises(VariableError):
            env.parallel_logical("A")

    def test_value_is_copy(self, env):
        a = env.parallel_int(init=1)
        a.value[0, 0] = 99
        assert a.value[0, 0] == 1


class TestArithmetic:
    def test_add_sub_mul(self, env):
        a = env.parallel_int(init=6)
        b = env.parallel_int(init=2)
        assert ((a + b).value == 8).all()
        assert ((a - b).value == 4).all()
        assert ((a * b).value == 12).all()
        assert ((a // b).value == 3).all()
        assert ((a % b).value == 0).all()

    def test_scalar_operands(self, env):
        a = env.parallel_int(init=5)
        assert ((a + 1).value == 6).all()
        assert ((1 + a).value == 6).all()
        assert ((10 - a).value == 5).all()
        assert ((2 * a).value == 10).all()

    def test_bitwise(self, env):
        a = env.parallel_int(init=0b1100)
        assert ((a & 0b1010).value == 0b1000).all()
        assert ((a | 0b0011).value == 0b1111).all()
        assert ((a ^ 0b1111).value == 0b0011).all()
        assert ((a << 1).value == 0b11000).all()
        assert ((a >> 2).value == 0b11).all()

    def test_sat_add(self, env):
        a = env.parallel_int(init=env.MAXINT)
        assert (a.sat_add(100).value == env.MAXINT).all()

    def test_bit(self, env):
        a = env.parallel_int(init=0b10)
        assert a.bit(1).value.all()
        assert not a.bit(0).value.any()

    def test_each_op_counts_one_alu(self, env):
        a = env.parallel_int(init=1)
        before = env.machine.counters.snapshot()
        _ = a + a
        _ = a * 2
        _ = a == 1
        assert env.machine.counters.diff(before)["alu_ops"] == 3


class TestComparisons:
    def test_comparison_returns_logical(self, env):
        a = env.parallel_int(init=env.machine.row_index)
        got = a < 2
        assert isinstance(got, ParallelLogical)
        assert got.value[:2].all() and not got.value[2:].any()

    def test_eq_ne(self, env):
        a = env.parallel_int(init=env.machine.col_index)
        assert (a == 1).value[:, 1].all()
        assert (a != 1).value[:, 0].all()

    def test_logical_ops(self, env):
        t = env.parallel_logical(init=True)
        f = env.parallel_logical(init=False)
        assert (t & f) .value.any() == False  # noqa: E712
        assert (t | f).value.all()
        assert (t ^ t).value.any() == False  # noqa: E712
        assert (~f).value.all()


class TestWhere:
    def test_assign_under_where(self, env):
        a = env.parallel_int(init=0)
        with env.where(env.ROW == 1):
            a.assign(9)
        assert (a.value[1] == 9).all() and a.value.sum() == 36

    def test_elsewhere(self, env):
        a = env.parallel_int(init=0)
        cond = env.ROW == 1
        with env.where(cond):
            a.assign(1)
        with env.elsewhere(cond):
            a.assign(2)
        assert (a.value[1] == 1).all()
        assert (a.value[0] == 2).all()

    def test_any(self, env):
        f = env.parallel_logical(init=False)
        assert env.any(f) is False
        with env.where((env.ROW == 0) & (env.COL == 0)):
            f.assign(True)
        assert env.any(f) is True


class TestCommunication:
    def test_broadcast(self, env):
        a = env.parallel_int(init=env.machine.row_index * 4 + env.machine.col_index)
        out = env.broadcast(a, Direction.SOUTH, env.ROW == 0)
        assert np.array_equal(out.value, np.tile(np.arange(4), (4, 1)))

    def test_broadcast_logical_payload(self, env):
        f = env.parallel_logical(init=env.machine.row_index == 2)
        out = env.broadcast(f, Direction.SOUTH, env.ROW == 2)
        assert isinstance(out, ParallelLogical)
        assert out.value.all()

    def test_shift(self, env):
        a = env.parallel_int(init=env.machine.col_index)
        assert env.shift(a, Direction.EAST).value[0].tolist() == [3, 0, 1, 2]

    def test_min_and_selected_min(self, env):
        vals = np.array([[7, 7, 1, 7]] * 4)
        a = env.parallel_int(init=vals)
        mn = env.min(a, Direction.WEST, env.COL == 3)
        assert (mn.value == 1).all()
        arg = env.selected_min(
            env.COL, Direction.WEST, env.COL == 3, mn == a
        )
        assert (arg.value == 2).all()

    def test_max(self, env):
        a = env.parallel_int(init=np.array([[7, 9, 1, 0]] * 4))
        assert (env.max(a, Direction.WEST, env.COL == 3).value == 9).all()

    def test_row_col_constants(self, env):
        assert np.array_equal(env.ROW.value, env.machine.row_index)
        assert np.array_equal(env.COL.value, env.machine.col_index)
        assert env.MAXINT == env.machine.maxint
