"""Row-packed 1-bit planes: the wired-OR and the receiver-only broadcast.

``RowBits`` packs a bool plane along rows into machine words; the
machine's ``bus_or`` resolves on them, and ``broadcast(..., receivers=R)``
reads each receiver's nearest Open node from them. These tests pin the
format (round trips, zero padding, per-PE edits) and check both
transactions against the bool-plane kernels they replace.
"""

import numpy as np
import pytest

from repro.ppa import Direction, PPAConfig, PPAMachine
from repro.ppa.segments import (
    RowBits,
    broadcast_values,
    plan_cache_stats,
    reset_plan_cache_stats,
    segmented_reduce,
)

SIZES = [1, 3, 7, 8, 9, 16, 63, 64, 65, 130]


def _padding(bits: RowBits) -> np.ndarray:
    """The bits of each row's words past its ``n`` PEs."""
    raw = np.unpackbits(bits.words.view(np.uint8), axis=-1,
                        bitorder="little")
    return raw[..., bits.n:]


class TestFormat:
    @pytest.mark.parametrize("n", SIZES)
    def test_round_trip_any_layout(self, n):
        rng = np.random.default_rng(n)
        plane = rng.random((3, n, n)) < 0.4
        for view in (plane, plane.swapaxes(-1, -2), plane[::-1]):
            bits = RowBits.pack(view)
            assert bits.shape == view.shape
            assert bits.words.flags.c_contiguous
            out = bits.unpack()
            assert out.flags.c_contiguous and out.dtype == np.bool_
            np.testing.assert_array_equal(out, view)
            assert not _padding(bits).any()

    def test_pe_p_is_bit_p_of_the_widest_tiling_word(self):
        plane = np.zeros((2, 64), dtype=bool)
        plane[1, 37] = True
        bits = RowBits.pack(plane)
        assert bits.words.dtype == np.dtype("<u8")
        assert bits.words.tolist() == [[0], [1 << 37]]
        assert RowBits.pack(np.ones((1, 20), bool)).words.dtype == np.uint8

    def test_set_and_flip_a_pe_in_every_lane(self):
        bits = RowBits.pack(np.zeros((3, 9, 9), dtype=bool))
        bits.set_pe(4, 8, True)
        bits.flip_pe(2, 1)
        want = np.zeros((3, 9, 9), dtype=bool)
        want[:, 4, 8] = want[:, 2, 1] = True
        np.testing.assert_array_equal(bits.unpack(), want)
        bits.set_pe(4, 8, False)
        bits.flip_pe(2, 1)
        assert not bits.unpack().any()


def _planes(rng, n, lanes):
    """Shared ring-wise, shared segmented and per-lane switch planes."""
    last = np.zeros((n, n), dtype=bool)
    last[:, -1] = last[-1, :] = True
    return [
        np.eye(n, dtype=bool),
        rng.random((n, n)) < 0.2,
        rng.random((lanes, n, n)) < 0.2,
        last,
    ]


class TestWiredOr:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("direction", list(Direction))
    def test_packed_or_equals_the_generic_reduction(self, n, direction):
        rng = np.random.default_rng(n)
        lanes = 3
        values = rng.random((lanes, n, n)) < 0.1
        for plane in _planes(rng, n, lanes):
            want = segmented_reduce(values.view(np.uint8), plane, direction,
                                    "max").astype(bool)
            got = segmented_reduce(RowBits.pack(values), plane, direction,
                                   "or")
            assert isinstance(got, RowBits)
            np.testing.assert_array_equal(got.unpack(), want)
            assert not _padding(got).any()
            bool_or = segmented_reduce(values, plane, direction, "or")
            np.testing.assert_array_equal(bool_or, want)

    def test_packed_operand_reduces_by_or_only(self):
        bits = RowBits.pack(np.ones((4, 4), dtype=bool))
        with pytest.raises(ValueError, match="'or'"):
            segmented_reduce(bits, np.eye(4, dtype=bool), Direction.EAST,
                             "and")

    def test_machine_bus_or_packs_bool_planes_and_passes_packed_ones(self):
        m = PPAMachine(PPAConfig(n=9), batch=2)
        bits = np.zeros((2, 9, 9), dtype=bool)
        bits[1, 4, 0] = True
        L = m.col_index == 8
        out = m.bus_or(bits, Direction.WEST, L)
        assert out.dtype == np.bool_ and out[1, 4].all()
        assert out.sum() == 9
        packed = RowBits.pack(bits)
        again = m.bus_or(packed, Direction.WEST, L)
        assert isinstance(again, RowBits) and again is not packed
        again.words[...] = 0  # fresh: the operand is untouched
        np.testing.assert_array_equal(packed.unpack(), bits)
        assert m.counters.reductions == 2 and m.counters.bit_cycles == 2


class TestReceiverBroadcast:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("direction", list(Direction))
    def test_receivers_get_the_full_broadcast(self, n, direction):
        rng = np.random.default_rng(n + 1)
        lanes = 3
        src = rng.integers(0, 1000, (lanes, n, n)).astype(np.uint16)
        opens = rng.random((lanes, n, n)) < 0.15
        opens[0, n // 2] = False  # an undriven row
        opens[1, :, n // 2] = False  # and column
        for receivers in _planes(rng, n, lanes):
            full = broadcast_values(src, opens, direction)
            want = np.where(receivers, full, src)
            for d in (opens, RowBits.pack(opens)):
                got = broadcast_values(src, d, direction,
                                       receivers=receivers)
                assert got.flags.c_contiguous and got.dtype == src.dtype
                np.testing.assert_array_equal(got, want)

    def test_shared_opens_and_source(self):
        """A 2-D Open plane and a 2-D source still latch per lane."""
        n = 8
        src = np.arange(n * n).reshape(n, n)
        opens = np.zeros((n, n), dtype=bool)
        opens[:, 3] = True
        receivers = np.zeros((2, n, n), dtype=bool)
        receivers[1, :, 6] = True
        got = broadcast_values(src, opens, Direction.EAST,
                               receivers=receivers)
        want = np.broadcast_to(src, (2, n, n)).copy()
        want[1, :, 6] = src[:, 3]
        np.testing.assert_array_equal(got, want)

    def test_records_one_miss(self):
        reset_plan_cache_stats()
        n = 8
        src = np.zeros((n, n), dtype=np.int64)
        L = np.eye(n, dtype=bool)
        broadcast_values(src, L, Direction.EAST, receivers=L)
        broadcast_values(src, L, Direction.EAST, receivers=L)
        stats = plan_cache_stats()
        assert (stats.broadcast_misses, stats.broadcast_hits) == (2, 0)
