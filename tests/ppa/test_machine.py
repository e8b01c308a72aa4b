"""PPAMachine: masks, stores, primitives, accounting."""

import numpy as np
import pytest

from repro.errors import BusError, MachineError, MaskError, WordWidthError
from repro.ppa import BusCostModel, Direction, PPAConfig, PPAMachine


class TestGeometry:
    def test_int_shorthand_config(self):
        m = PPAMachine(5)
        assert m.n == 5 and m.word_bits == 16

    def test_index_planes(self, machine4):
        assert machine4.row_index[2, 3] == 2
        assert machine4.col_index[2, 3] == 3

    def test_index_planes_are_copies(self, machine4):
        machine4.row_index[0, 0] = 99
        assert machine4.row_index[0, 0] == 0

    def test_maxint(self):
        assert PPAMachine(PPAConfig(n=2, word_bits=8)).maxint == 255


class TestMasks:
    def test_default_all_active(self, machine4):
        assert machine4.active_mask.all()

    def test_where_restricts_store(self, machine4):
        a = machine4.new_parallel(0)
        with machine4.where(machine4.row_index == 1):
            machine4.store(a, 7)
        assert (a[1] == 7).all()
        assert a.sum() == 7 * 4

    def test_where_nests_by_and(self, machine4):
        a = machine4.new_parallel(0)
        with machine4.where(machine4.row_index == 1):
            with machine4.where(machine4.col_index == 2):
                machine4.store(a, 5)
        assert a[1, 2] == 5
        assert a.sum() == 5

    def test_elsewhere_complements_within_parent(self, machine4):
        a = machine4.new_parallel(0)
        with machine4.where(machine4.row_index <= 1):
            with machine4.elsewhere(machine4.col_index == 0):
                machine4.store(a, 3)
        # rows 0-1, cols 1-3
        assert (a[:2, 1:] == 3).all()
        assert a[:2, 0].sum() == 0 and a[2:].sum() == 0

    def test_mask_popped_after_block(self, machine4):
        with machine4.where(machine4.row_index == 0):
            pass
        assert machine4.active_mask.all()

    def test_mask_popped_on_exception(self, machine4):
        with pytest.raises(RuntimeError):
            with machine4.where(machine4.row_index == 0):
                raise RuntimeError("boom")
        assert machine4.active_mask.all()

    def test_bad_mask_shape_rejected(self, machine4):
        with pytest.raises(MachineError, match="switch plane"):
            with machine4.where(np.ones((3, 7), bool)):
                pass

    def test_store_outside_where_is_full(self, machine4):
        a = machine4.new_parallel(1)
        machine4.store(a, 9)
        assert (a == 9).all()


class TestBroadcast:
    def test_row_to_grid(self, machine4):
        src = machine4.row_index * 10 + machine4.col_index
        out = machine4.broadcast(src, Direction.SOUTH, machine4.row_index == 2)
        assert np.array_equal(out, np.tile(src[2], (4, 1)))

    def test_counts_transaction(self, machine4):
        before = machine4.counters.snapshot()
        machine4.broadcast(
            machine4.new_parallel(1), Direction.EAST, machine4.col_index == 0
        )
        d = machine4.counters.diff(before)
        assert d["broadcasts"] == 1
        assert d["bus_cycles"] == 1
        assert d["bit_cycles"] == machine4.word_bits

    def test_bool_broadcast_costs_one_bit(self, machine4):
        before = machine4.counters.snapshot()
        machine4.broadcast(
            machine4.new_parallel(0, dtype=bool),
            Direction.EAST,
            machine4.col_index == 0,
        )
        assert machine4.counters.diff(before)["bit_cycles"] == 1

    def test_linear_cost_model_charges_ring(self):
        m = PPAMachine(PPAConfig(n=8, bus_cost_model=BusCostModel.LINEAR))
        m.broadcast(m.new_parallel(0), Direction.SOUTH, m.row_index == 0)
        assert m.counters.bus_cycles == 8

    def test_strict_bus_raises_on_undriven_ring(self):
        m = PPAMachine(PPAConfig(n=4, strict_bus=True))
        with pytest.raises(BusError):
            m.broadcast(m.new_parallel(0), Direction.SOUTH, False)


class TestReduceAndOr:
    def test_bus_or_whole_row(self, machine4):
        bits = machine4.new_parallel(0, dtype=bool)
        bits[1, 3] = True
        out = machine4.bus_or(bits, Direction.WEST, machine4.col_index == 3)
        assert out[1].all() and not out[0].any()

    def test_bus_reduce_min(self, machine4):
        vals = machine4.col_index + 10 * machine4.row_index
        out = machine4.bus_reduce(
            vals, Direction.EAST, machine4.col_index == 0, "min"
        )
        assert np.array_equal(out, 10 * machine4.row_index)

    def test_reduce_counts(self, machine4):
        before = machine4.counters.snapshot()
        machine4.bus_or(
            machine4.new_parallel(0, dtype=bool),
            Direction.EAST,
            machine4.col_index == 0,
        )
        d = machine4.counters.diff(before)
        assert d["reductions"] == 1
        assert d["bit_cycles"] == 1  # wired-OR is single-bit


class TestShiftAndGlobalOr:
    def test_shift_torus(self, machine4):
        out = machine4.shift(machine4.col_index, Direction.EAST)
        assert out[0].tolist() == [3, 0, 1, 2]

    def test_shift_linear_fill(self):
        m = PPAMachine(PPAConfig(n=4, torus=False))
        out = m.shift(m.col_index, Direction.EAST, fill=-1)
        assert out[0].tolist() == [-1, 0, 1, 2]

    def test_global_or(self, machine4):
        flags = machine4.new_parallel(0, dtype=bool)
        assert machine4.global_or(flags) is False
        flags[3, 3] = True
        assert machine4.global_or(flags) is True

    def test_global_or_cost(self, machine4):
        before = machine4.counters.snapshot()
        machine4.global_or(machine4.new_parallel(0, dtype=bool))
        d = machine4.counters.diff(before)
        assert d["global_ors"] == 1
        assert d["bus_cycles"] == 2


class TestWordArithmetic:
    def test_sat_add_saturates_at_maxint(self):
        m = PPAMachine(PPAConfig(n=2, word_bits=8))
        a = m.new_parallel(200)
        b = m.new_parallel(100)
        assert (m.sat_add(a, b) == 255).all()

    def test_sat_add_normal(self, machine4):
        out = machine4.sat_add(machine4.new_parallel(3), machine4.new_parallel(4))
        assert (out == 7).all()

    def test_maxint_absorbs(self):
        m = PPAMachine(PPAConfig(n=2, word_bits=8))
        out = m.sat_add(m.new_parallel(m.maxint), m.new_parallel(1))
        assert (out == m.maxint).all()

    def test_check_word_accepts_range(self, machine4):
        machine4.check_word(np.array([0, machine4.maxint]))

    def test_check_word_rejects_negative(self, machine4):
        with pytest.raises(WordWidthError):
            machine4.check_word(np.array([-1]))

    def test_check_word_rejects_overflow(self, machine4):
        with pytest.raises(WordWidthError):
            machine4.check_word(np.array([machine4.maxint + 1]))

    def test_bit_planes(self, machine4):
        v = machine4.new_parallel(0b1010)
        assert machine4.bit(v, 1).all()
        assert not machine4.bit(v, 0).any()
        assert machine4.bit(v, 3).all()

    @pytest.mark.parametrize(
        "plane",
        [
            np.array([-1, -2, -(1 << 15), -(1 << 40) - 5]),  # negative
            np.array([1 << 16, (1 << 17) + 5, (1 << 40) | 0x5A5A, 65535]),
            np.array([True, False, True, True]),
            np.array([0, 1, 0x8001, 65535], dtype=np.uint16),
            np.array([0, 200, 255, 7], dtype=np.uint8),
            np.array([-1, -128, 127, 3], dtype=np.int8),
            np.array([3.0, 1.9, 255.0, 1024.0]),
        ],
        ids=["negative", "over-word", "bool", "uint16", "uint8", "int8",
             "float"],
    )
    def test_bit_matches_int64_shift(self, machine4, plane):
        """Testing in the input's own dtype reads the same bit every
        word-width j as shifting the int64 widening did."""
        for j in range(machine4.word_bits):
            want = (np.asarray(plane, dtype=np.int64) >> j) & 1 == 1
            got = machine4.bit(plane, j)
            assert got.dtype == bool
            assert np.array_equal(got, want), j

    def test_bit_index_out_of_word(self, machine4):
        with pytest.raises(WordWidthError):
            machine4.bit(machine4.new_parallel(0), 16)

    def test_require_square_fit(self, machine4):
        machine4.require_square_fit(4)
        with pytest.raises(MaskError):
            machine4.require_square_fit(5)


class TestTrace:
    def test_disabled_by_default(self, machine4):
        machine4.broadcast(
            machine4.new_parallel(0), Direction.EAST, machine4.col_index == 0
        )
        assert len(machine4.trace) == 0

    def test_capture_records_kinds(self, machine4):
        with machine4.trace.capture():
            machine4.broadcast(
                machine4.new_parallel(0), Direction.EAST, machine4.col_index == 0
            )
            machine4.bus_or(
                machine4.new_parallel(0, dtype=bool),
                Direction.SOUTH,
                machine4.row_index == 0,
            )
            machine4.global_or(machine4.new_parallel(0, dtype=bool))
        kinds = [t.kind for t in machine4.trace.records]
        assert kinds == ["broadcast", "reduce", "global_or"]

    def test_span_accounting(self, machine4):
        with machine4.trace.capture():
            machine4.broadcast(
                machine4.new_parallel(0), Direction.EAST, machine4.col_index == 0
            )
        t = machine4.trace.records[0]
        assert t.open_count == 4  # one per row ring
        assert t.max_span == 4  # one open per ring of length 4

    def test_reprice(self, machine4):
        with machine4.trace.capture():
            for _ in range(3):
                machine4.broadcast(
                    machine4.new_parallel(0),
                    Direction.EAST,
                    machine4.col_index == 0,
                )
        assert machine4.trace.reprice(lambda span: span) == 12
        machine4.trace.clear()
        assert len(machine4.trace) == 0

    def test_exact_span_evenly_spaced_opens(self):
        """Evenly spaced opens: exact span beats the analytical bound.

        Ring length 8 with opens at columns 0 and 4 cuts every row ring
        into two clusters of span 4 each; the pessimistic formula
        ``ring_len - k + 1`` would report 7.
        """
        from repro.ppa.bus import max_cluster_span_bound

        machine = PPAMachine(PPAConfig(n=8, word_bits=8))
        opens = (machine.col_index % 4) == 0
        with machine.trace.capture():
            machine.broadcast(machine.new_parallel(0), Direction.EAST, opens)
        t = machine.trace.records[0]
        assert t.open_count == 16
        assert t.max_span == 4
        assert max_cluster_span_bound(8, 2) == 7  # bound, not exact

    def test_exact_span_adjacent_opens_hit_bound(self):
        """Adjacent opens realise the worst case of the bound."""
        from repro.ppa.bus import max_cluster_span_bound

        machine = PPAMachine(PPAConfig(n=8, word_bits=8))
        opens = machine.col_index <= 1  # opens at columns 0 and 1
        with machine.trace.capture():
            machine.broadcast(machine.new_parallel(0), Direction.EAST, opens)
        t = machine.trace.records[0]
        assert t.max_span == 7 == max_cluster_span_bound(8, 2)

    def test_exact_span_column_rings(self):
        """SOUTH transactions analyse columns, not rows."""
        machine = PPAMachine(PPAConfig(n=8, word_bits=8))
        opens = (machine.row_index % 4) == 0
        with machine.trace.capture():
            machine.broadcast(machine.new_parallel(0), Direction.SOUTH, opens)
        assert machine.trace.records[0].max_span == 4

    def test_exact_span_no_opens_ring(self, machine4):
        """A ring with no opens floats as one full-length cluster."""
        opens = (machine4.col_index == 0) & (machine4.row_index > 0)
        with machine4.trace.capture():
            machine4.broadcast(machine4.new_parallel(0), Direction.EAST, opens)
        assert machine4.trace.records[0].max_span == 4
