"""ParallelMemory variable table."""

import numpy as np
import pytest

from repro.errors import VariableError
from repro.ppa.memory import ParallelMemory


@pytest.fixture
def mem():
    return ParallelMemory((3, 3))


class TestDeclare:
    def test_int_default_zero(self, mem):
        arr = mem.declare("a")
        assert arr.dtype == np.int64
        assert not arr.any()

    def test_logical_kind(self, mem):
        arr = mem.declare("flag", "logical")
        assert arr.dtype == np.bool_
        assert mem.kind("flag") == "logical"

    def test_init_scalar_broadcasts(self, mem):
        arr = mem.declare("a", init=7)
        assert (arr == 7).all()

    def test_init_grid(self, mem):
        grid = np.arange(9).reshape(3, 3)
        arr = mem.declare("a", init=grid)
        assert np.array_equal(arr, grid)

    def test_grid_init_on_lanes_is_c_contiguous(self):
        """A shared 2-D init broadcast over lanes is copied in C order,
        not in the broadcast view's lane-minor stride order."""
        grid = np.arange(16).reshape(4, 4)
        arr = ParallelMemory((3, 4, 4)).declare("a", init=grid)
        assert arr.flags.c_contiguous
        assert np.array_equal(arr, np.broadcast_to(grid, (3, 4, 4)))

    def test_redeclare_rejected(self, mem):
        mem.declare("a")
        with pytest.raises(VariableError, match="already declared"):
            mem.declare("a")

    def test_unknown_kind_rejected(self, mem):
        with pytest.raises(VariableError, match="unknown parallel kind"):
            mem.declare("a", "float")


class TestReadWrite:
    def test_read_unknown_rejected(self, mem):
        with pytest.raises(VariableError, match="undeclared"):
            mem.read("nope")

    def test_write_full(self, mem):
        mem.declare("a")
        mem.write("a", 5)
        assert (mem.read("a") == 5).all()

    def test_write_masked(self, mem):
        mem.declare("a")
        mask = np.zeros((3, 3), bool)
        mask[1, 1] = True
        mem.write("a", 9, mask=mask)
        arr = mem.read("a")
        assert arr[1, 1] == 9
        assert arr.sum() == 9

    def test_write_casts_to_kind(self, mem):
        mem.declare("f", "logical")
        mem.write("f", 1)
        assert mem.read("f").dtype == np.bool_


class TestLifecycle:
    def test_free(self, mem):
        mem.declare("a")
        mem.free("a")
        assert "a" not in mem
        with pytest.raises(VariableError):
            mem.free("a")

    def test_names_sorted(self, mem):
        mem.declare("b")
        mem.declare("a")
        assert mem.names() == ["a", "b"]

    def test_words_allocated(self, mem):
        assert mem.words_allocated() == 0
        mem.declare("a")
        mem.declare("b", "logical")
        assert mem.words_allocated() == 2
        assert len(mem) == 2
