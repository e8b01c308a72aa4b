"""The paper's min()/selected_min() routines."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ppa import Direction, PPAConfig, PPAMachine
from repro.ppc.reductions import (
    ppa_max,
    ppa_min,
    ppa_selected_min,
    word_parallel_min,
)


def machine(n=4, h=8):
    return PPAMachine(PPAConfig(n=n, word_bits=h))


class TestPpaMin:
    def test_row_min_broadcast_to_all(self):
        m = machine()
        vals = np.array(
            [[9, 3, 7, 5], [1, 1, 1, 1], [200, 100, 150, 255], [0, 9, 9, 9]]
        )
        out = ppa_min(m, vals, Direction.WEST, m.col_index == 3)
        want = np.tile(vals.min(axis=1, keepdims=True), (1, 4))
        assert np.array_equal(out, want)

    def test_column_min(self):
        m = machine()
        vals = (m.row_index * 7 + m.col_index * 3) % 13
        out = ppa_min(m, vals, Direction.SOUTH, m.row_index == 0)
        want = np.tile(vals.min(axis=0, keepdims=True), (4, 1))
        assert np.array_equal(out, want)

    def test_multi_cluster(self):
        m = machine()
        vals = np.array([[5, 2, 8, 1]] * 4)
        L = (m.col_index == 0) | (m.col_index == 2)
        out = ppa_min(m, vals, Direction.EAST, L)
        # clusters {0,1} -> 2 and {2,3} -> 1
        assert out[0].tolist() == [2, 2, 1, 1]

    def test_cost_linear_in_h(self):
        for h in (8, 16):
            m = machine(h=h)
            before = m.counters.snapshot()
            ppa_min(m, m.new_parallel(1), Direction.WEST, m.col_index == 3)
            d = m.counters.diff(before)
            assert d["reductions"] == h  # one wired-OR per bit
            assert d["broadcasts"] == 2  # deliver + fan-out

    def test_head_surviving_cluster(self):
        """Regression: the cluster head itself holds the minimum."""
        m = machine()
        vals = np.array([[1, 9, 9, 9]] * 4)
        out = ppa_min(m, vals, Direction.EAST, m.col_index == 0)
        assert (out == 1).all()

    @pytest.mark.parametrize(
        "vals",
        [
            # each row's winner by its low h bits is unique: -253 (3)
            # beats 300 (44) and 50; 256 + 9 (9) beats 10; -1 reads 255
            np.array([[-253, 300, 50, -1]] * 4),
            np.array([[(1 << 40) + 7, 300, 10, 256 + 9]] * 4),
            np.array([[9, 3, 7, 5]] * 4, dtype=np.uint8),
            np.array([[True, False, True, True]] * 4),
        ],
        ids=["negative", "over-word", "uint8", "bool"],
    )
    def test_min_by_low_word_bits_delivers_original(self, vals):
        """Elimination reads bits j < h only; the survivor's own value is
        delivered, as with the int64 bit reads."""
        m = machine(h=8)
        out = ppa_min(m, vals, Direction.WEST, m.col_index == 3)
        wide = np.asarray(vals, dtype=np.int64)
        winner = (wide & m.maxint).argmin(axis=1)
        want = np.repeat(wide[np.arange(4), winner][:, None], 4, axis=1)
        assert np.array_equal(out, want)

    @given(
        st.lists(
            st.lists(st.integers(0, 255), min_size=5, max_size=5),
            min_size=5,
            max_size=5,
        )
    )
    def test_equals_numpy_row_min(self, rows):
        m = machine(n=5, h=8)
        vals = np.array(rows)
        out = ppa_min(m, vals, Direction.WEST, m.col_index == 4)
        assert np.array_equal(out, np.tile(vals.min(1, keepdims=True), (1, 5)))


class TestSelectedMin:
    def test_recovers_smallest_argmin(self):
        m = machine()
        vals = np.array([[4, 2, 2, 9]] * 4)
        sel = vals == 2
        out = ppa_selected_min(m, m.col_index, Direction.WEST, m.col_index == 3, sel)
        assert (out == 1).all()  # smallest column among achievers

    def test_single_selected(self):
        m = machine()
        sel = m.col_index == 2
        out = ppa_selected_min(
            m, m.col_index, Direction.WEST, m.col_index == 3, sel
        )
        assert (out == 2).all()

    @given(
        st.lists(
            st.lists(st.integers(0, 255), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    def test_argmin_matches_numpy(self, rows):
        m = machine(h=8)
        vals = np.array(rows)
        rowmin = ppa_min(m, vals, Direction.WEST, m.col_index == 3)
        arg = ppa_selected_min(
            m, m.col_index, Direction.WEST, m.col_index == 3, rowmin == vals
        )
        assert np.array_equal(arg[:, 0], vals.argmin(axis=1))


class TestMaxAndWordParallel:
    def test_ppa_max(self):
        m = machine()
        vals = np.array([[9, 3, 7, 5]] * 4)
        out = ppa_max(m, vals, Direction.WEST, m.col_index == 3)
        assert (out == 9).all()

    @given(
        st.lists(
            st.lists(st.integers(0, 255), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    def test_word_parallel_equals_bit_serial(self, rows):
        vals = np.array(rows)
        m1, m2 = machine(h=8), machine(h=8)
        a = ppa_min(m1, vals, Direction.WEST, m1.col_index == 3)
        b = word_parallel_min(m2, vals, Direction.WEST, m2.col_index == 3)
        assert np.array_equal(a, b)

    def test_word_parallel_single_transaction(self):
        m = machine()
        before = m.counters.snapshot()
        word_parallel_min(m, m.new_parallel(3), Direction.WEST, m.col_index == 3)
        assert m.counters.diff(before)["bus_cycles"] == 1


class TestDirectionsSymmetry:
    @pytest.mark.parametrize(
        "direction,open_sel",
        [
            (Direction.EAST, "col0"),
            (Direction.WEST, "col_last"),
            (Direction.SOUTH, "row0"),
            (Direction.NORTH, "row_last"),
        ],
    )
    def test_full_line_min_any_orientation(self, direction, open_sel):
        m = machine()
        vals = (3 * m.row_index + 5 * m.col_index + 1) % 17
        L = {
            "col0": m.col_index == 0,
            "col_last": m.col_index == 3,
            "row0": m.row_index == 0,
            "row_last": m.row_index == 3,
        }[open_sel]
        out = ppa_min(m, vals, direction, L)
        axis = direction.axis
        # axis == 1 -> reduce along columns (per row); axis == 0 -> per col
        want = (
            np.tile(vals.min(1, keepdims=True), (1, 4))
            if axis == 1
            else np.tile(vals.min(0, keepdims=True), (4, 1))
        )
        assert np.array_equal(out, want)


class TestDigitSerial:
    from repro.ppc.reductions import ppa_min_digit_serial  # noqa

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 16])
    def test_equals_bit_serial(self, k):
        from repro.ppc.reductions import ppa_min_digit_serial

        rng = np.random.default_rng(k)
        vals = rng.integers(0, 65535, size=(6, 6))
        m1 = PPAMachine(PPAConfig(n=6, word_bits=16))
        m2 = PPAMachine(PPAConfig(n=6, word_bits=16))
        L = m1.col_index == 5
        a = ppa_min(m1, vals, Direction.WEST, L)
        b = ppa_min_digit_serial(m2, vals, Direction.WEST, L, k)
        assert np.array_equal(a, b)

    def test_transaction_count(self):
        from repro.ppc.reductions import ppa_min_digit_serial

        for k, expected in [(1, 16), (2, 8), (4, 4), (16, 1)]:
            m = PPAMachine(PPAConfig(n=4, word_bits=16))
            ppa_min_digit_serial(
                m, m.new_parallel(3), Direction.WEST, m.col_index == 3, k
            )
            assert m.counters.reductions == expected, k

    def test_k1_matches_paper_bit_cost(self):
        from repro.ppc.reductions import ppa_min_digit_serial

        m = PPAMachine(PPAConfig(n=4, word_bits=8))
        ppa_min_digit_serial(
            m, m.new_parallel(3), Direction.WEST, m.col_index == 3, 1
        )
        # h single-lane transactions + 2 word broadcasts
        assert m.counters.bit_cycles == 8 + 2 * 8

    def test_bad_digit_bits(self):
        from repro.ppc.reductions import ppa_min_digit_serial

        m = PPAMachine(PPAConfig(n=4, word_bits=8))
        with pytest.raises(ValueError, match="digit_bits"):
            ppa_min_digit_serial(
                m, m.new_parallel(0), Direction.WEST, m.col_index == 3, 0
            )
        with pytest.raises(ValueError, match="digit_bits"):
            ppa_min_digit_serial(
                m, m.new_parallel(0), Direction.WEST, m.col_index == 3, 9
            )

    @given(
        st.lists(
            st.lists(st.integers(0, 255), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        ),
        st.integers(1, 8),
    )
    def test_property_equals_numpy(self, rows, k):
        from repro.ppc.reductions import ppa_min_digit_serial

        m = PPAMachine(PPAConfig(n=4, word_bits=8))
        vals = np.array(rows)
        out = ppa_min_digit_serial(m, vals, Direction.WEST, m.col_index == 3, k)
        assert np.array_equal(out, np.tile(vals.min(1, keepdims=True), (1, 4)))
