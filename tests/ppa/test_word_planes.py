"""Word planes: the machine's word dtype, and the primitives that keep
narrow planes exact (saturating add, casting store, bit tests, flips)."""

import numpy as np
import pytest

from repro.ppa import PPAConfig, PPAMachine
from repro.ppa.directions import Direction
from repro.ppa.faults import FaultPlan


def machine(n=4, h=16, batch=None):
    return PPAMachine(PPAConfig(n=n, word_bits=h), batch=batch)


class TestWordDtype:
    @pytest.mark.parametrize(
        "word_bits, dtype",
        [(2, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16),
         (17, np.uint32), (32, np.uint32), (33, np.int64), (62, np.int64)],
    )
    def test_narrowest_unsigned_that_holds_maxint(self, word_bits, dtype):
        m = machine(h=word_bits)
        assert m.word_dtype == np.dtype(dtype)
        if m.word_dtype.kind == "u":
            assert np.iinfo(m.word_dtype).max >= m.maxint

    def test_grid_index_past_maxint_widens(self):
        """An index plane rides at the word dtype, so the dtype also holds
        every PE index."""
        assert machine(n=300, h=8).word_dtype == np.dtype(np.uint16)
        assert machine(n=256, h=8).word_dtype == np.dtype(np.uint8)

    def test_lane_view_keeps_the_word_dtype(self):
        assert machine(h=17).lanes(3).word_dtype == np.dtype(np.uint32)


class TestSatAdd:
    @pytest.mark.parametrize("word_bits", [7, 8, 9, 15, 16, 17, 31, 32, 33])
    def test_exact_through_the_carry_on_word_planes(self, word_bits):
        m = machine(h=word_bits)
        top = m.maxint
        a = np.array([[top, top, top - 1, 0]] * 4, dtype=m.word_dtype)
        b = np.array([[top, 1, 1, top - 1]] * 4, dtype=m.word_dtype)
        out = m.sat_add(a, b)
        want = np.minimum(a.astype(object) + b.astype(object), top)
        assert np.array_equal(out.astype(object), want)

    def test_word_operands_add_in_the_wider_dtype(self):
        m = machine(h=16)
        a = m.new_parallel(1, m.word_dtype)
        assert m.sat_add(a, a).dtype == np.dtype(np.uint32)
        assert m.sat_add(a, a.astype(bool)).dtype == np.dtype(np.uint32)

    def test_other_operands_add_in_int64(self):
        m = machine(h=16)
        a = m.new_parallel(1, m.word_dtype)
        assert m.sat_add(a, 1).dtype == np.dtype(np.int64)
        assert m.sat_add(a, a.astype(np.int8)).dtype == np.dtype(np.int64)
        assert m.sat_add(a, a.astype(np.uint32)).dtype == np.dtype(np.int64)
        assert machine(h=40).sat_add(a, a).dtype == np.dtype(np.int64)

    def test_counts_one_alu_op(self):
        m = machine(h=16)
        a = m.new_parallel(3, m.word_dtype)
        m.sat_add(a, a)
        assert m.counters.alu_ops == 1


class TestStore:
    def test_casts_a_carry_sum_into_the_word_plane(self):
        m = machine(h=16)
        dest = m.new_parallel(7, m.word_dtype)
        total = m.sat_add(dest, m.new_parallel(m.maxint, m.word_dtype))
        with m.where(m.row_index == 1):
            out = m.store(dest, total)
        assert out is dest and dest.dtype == np.dtype(np.uint16)
        assert (dest[1] == m.maxint).all()
        assert (np.delete(dest, 1, axis=0) == 7).all()

    def test_broadcasts_scalars_and_lane_vectors(self):
        m = machine(h=16, batch=3)
        dest = m.new_parallel(0, m.word_dtype)
        m.store(dest, np.arange(3)[:, None, None])
        assert [int(dest[b].max()) for b in range(3)] == [0, 1, 2]
        with m.where(m.col_index == 0):
            m.store(dest, 9)
        assert (dest[:, :, 0] == 9).all() and (dest[2, :, 1:] == 2).all()


class TestBit:
    def test_out_buffer_is_filled_and_returned(self):
        m = machine(h=16)
        src = np.array([[1, 2, 3, 0x8000]] * 4, dtype=np.uint16)
        buf = np.empty((4, 4), dtype=bool)
        assert m.bit(src, 15, out=buf) is buf
        assert buf.tolist() == [[False, False, False, True]] * 4
        m.bit(src, 0, out=buf)
        assert buf.tolist() == [[True, False, True, False]] * 4


class TestTransientFlipsStayInTheWord:
    def test_word_plane_keeps_its_dtype(self):
        m = machine(h=16)
        m.inject_faults(FaultPlan().add_transient(0, 0, 15, 1.0))
        out = m.broadcast(
            m.new_parallel(1, m.word_dtype), Direction.EAST,
            m.col_index == 0,
        )
        assert out.dtype == m.word_dtype and int(out[0, 0]) == 1 | 1 << 15
