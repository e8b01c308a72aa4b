"""Per-lane cost accounting on batched machines.

Two layers under test:

* :class:`repro.ppa.counters.LaneCounters` — the per-lane counter planes
  themselves (accumulation, masking, round-trip-safe snapshots).
* :class:`repro.ppa.machine.PPAMachine` lane management — batched
  construction, the active-lane mask that gates the ledger, the
  ``lanes()`` shared-attribution view, and ``lane_global_or``.

The contract that makes batched == serial counter parity possible: the
scalar :class:`CycleCounters` bundle prices each batched SIMD instruction
once, while every *active* lane's plane is charged exactly what a serial
run would have charged.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, MaskError
from repro.ppa import PPAConfig, PPAMachine
from repro.ppa.counters import CycleCounters, LaneCounters
from repro.ppa.directions import Direction


class TestLaneCounters:
    def test_starts_zero(self):
        lc = LaneCounters(3)
        assert all((v == 0).all() for v in lc.snapshot().values())
        assert len(lc) == 3

    def test_rejects_nonpositive_lanes(self):
        with pytest.raises(ValueError, match="lanes must be >= 1"):
            LaneCounters(0)

    def test_add_all_lanes(self):
        lc = LaneCounters(4)
        lc.add({"alu_ops": 5, "instructions": 5})
        assert lc.total()["alu_ops"] == 20
        assert lc.lane(2)["alu_ops"] == 5

    def test_add_masked_lanes_only(self):
        lc = LaneCounters(3)
        lc.add({"bus_cycles": 7}, mask=np.array([True, False, True]))
        planes = lc.snapshot()
        assert planes["bus_cycles"].tolist() == [7, 0, 7]

    def test_add_unknown_counter_raises(self):
        lc = LaneCounters(2)
        with pytest.raises(ValueError, match="unknown counter"):
            lc.add({"bus_cylces": 1})  # typo

    def test_vocabulary_matches_cycle_counters(self):
        lc = LaneCounters(1)
        assert set(lc.snapshot()) == set(CycleCounters.field_names())

    def test_snapshot_is_copy(self):
        lc = LaneCounters(2)
        snap = lc.snapshot()
        lc.add({"shifts": 1})
        assert snap["shifts"].tolist() == [0, 0]

    def test_diff_per_lane(self):
        lc = LaneCounters(3)
        lc.add({"broadcasts": 2})
        before = lc.snapshot()
        lc.add({"broadcasts": 3}, mask=np.array([False, True, True]))
        d = lc.diff(before)
        assert d["broadcasts"].tolist() == [0, 3, 3]
        assert d["reductions"].tolist() == [0, 0, 0]

    def test_diff_rejects_partial_snapshot(self):
        lc = LaneCounters(2)
        with pytest.raises(ValueError, match="missing keys"):
            lc.diff({"alu_ops": np.zeros(2, dtype=np.int64)})

    def test_merge_lane_for_lane(self):
        a = LaneCounters(2)
        b = LaneCounters(2)
        a.add({"global_ors": 1}, mask=np.array([True, False]))
        b.add({"global_ors": 4}, mask=np.array([False, True]))
        a.merge(b)
        assert a.snapshot()["global_ors"].tolist() == [1, 4]

    def test_merge_rejects_lane_mismatch(self):
        with pytest.raises(ValueError, match="cannot merge 3 lanes into 2"):
            LaneCounters(2).merge(LaneCounters(3))

    def test_merge_rejects_partial_mapping(self):
        with pytest.raises(ValueError, match="not a complete lane-counter"):
            LaneCounters(2).merge({"alu_ops": np.zeros(2)})

    def test_reset(self):
        lc = LaneCounters(2)
        lc.add({"bit_cycles": 9})
        lc.reset()
        assert lc.total()["bit_cycles"] == 0

    def test_lane_and_total_views(self):
        lc = LaneCounters(3)
        lc.add({"instructions": 2}, mask=np.array([True, True, False]))
        assert lc.lane(0)["instructions"] == 2
        assert lc.lane(2)["instructions"] == 0
        assert lc.total()["instructions"] == 4

    def test_static_lane_of_and_total_of(self):
        lc = LaneCounters(3)
        before = lc.snapshot()
        lc.add({"alu_ops": 3}, mask=np.array([False, True, True]))
        delta = lc.diff(before)
        assert LaneCounters.lane_of(delta, 1)["alu_ops"] == 3
        assert LaneCounters.lane_of(delta, 0)["alu_ops"] == 0
        assert LaneCounters.total_of(delta)["alu_ops"] == 6


class TestDeferredCharges:
    """Charges under one selection are summed as scalars and applied at
    the next selection change or read; every read must see exactly what
    eager per-charge accumulation would have produced."""

    @pytest.mark.parametrize("seed", range(6))
    def test_interleaving_matches_eager_accumulation(self, seed):
        rng = np.random.default_rng(seed)
        lanes = int(rng.integers(1, 9))
        names = CycleCounters.field_names()
        lc = LaneCounters(lanes)
        eager = {name: np.zeros(lanes, dtype=np.int64) for name in names}
        selected = np.ones(lanes, dtype=bool)
        snaps = []
        for _ in range(300):
            action = rng.choice(["charge", "masked", "select", "read"],
                                p=[0.6, 0.1, 0.15, 0.15])
            if action in ("charge", "masked"):
                inc = {str(name): int(rng.integers(0, 50))
                       for name in rng.choice(names, size=rng.integers(1, 4),
                                              replace=False)}
                if action == "charge":
                    lc.add(inc)
                    mask = selected
                else:
                    mask = rng.random(lanes) < 0.5
                    lc.add(inc, mask=mask)
                for name, value in inc.items():
                    eager[name][mask] += value
            elif action == "select":
                if rng.random() < 0.25:
                    lc.select(None)
                    selected = np.ones(lanes, dtype=bool)
                else:
                    selected = rng.random(lanes) < 0.5
                    lc.select(selected)
                assert np.array_equal(lc.selected, selected)
            else:
                read = rng.choice(["snapshot", "diff", "lane", "total"])
                if read == "snapshot":
                    snaps.append((lc.snapshot(),
                                  {k: v.copy() for k, v in eager.items()}))
                    got, want = snaps[-1]
                elif read == "diff" and snaps:
                    got = lc.diff(snaps[0][0])
                    want = {k: eager[k] - snaps[0][1][k] for k in names}
                elif read == "lane":
                    b = int(rng.integers(lanes))
                    got = lc.lane(b)
                    want = {k: int(eager[k][b]) for k in names}
                else:
                    got = lc.total()
                    want = {k: int(eager[k].sum()) for k in names}
                for name in names:
                    assert np.array_equal(got[name], want[name]), name
        other = LaneCounters(lanes)
        other.add({"alu_ops": 3})
        lc.merge(other)
        eager["alu_ops"] += 3
        assert all(np.array_equal(lc.snapshot()[k], eager[k]) for k in names)

    def test_selection_outlives_reads_and_reset(self):
        lc = LaneCounters(3)
        lc.select(np.array([True, False, True]))
        lc.add({"shifts": 2})
        assert lc.snapshot()["shifts"].tolist() == [2, 0, 2]
        lc.add({"shifts": 1})
        lc.reset()  # drops pending charges too
        assert lc.total()["shifts"] == 0
        lc.add({"shifts": 5})
        assert lc.snapshot()["shifts"].tolist() == [5, 0, 5]
        assert lc.selected.tolist() == [True, False, True]

    def test_select_copies_its_mask(self):
        lc = LaneCounters(2)
        mask = np.array([True, False])
        lc.select(mask)
        lc.add({"alu_ops": 1})
        mask[1] = True  # the caller's array, edited after the charge
        lc.add({"alu_ops": 1})
        assert lc.snapshot()["alu_ops"].tolist() == [2, 0]


class TestBatchedMachineCtor:
    def test_unbatched_has_no_lane_counters(self):
        m = PPAMachine(PPAConfig(n=4))
        assert m.batch is None
        assert m.lane_counters is None
        assert m.parallel_shape == (4, 4)

    def test_batched_shapes_and_ledger(self):
        m = PPAMachine(PPAConfig(n=4), batch=3)
        assert m.batch == 3
        assert isinstance(m.lane_counters, LaneCounters)
        assert len(m.lane_counters) == 3
        assert m.parallel_shape == (3, 4, 4)
        assert m.new_parallel().shape == (3, 4, 4)

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ConfigurationError, match="batch must be >= 1"):
            PPAMachine(PPAConfig(n=4), batch=0)


class TestActiveLaneMask:
    def test_requires_batched_machine(self):
        m = PPAMachine(PPAConfig(n=4))
        with pytest.raises(MaskError, match="requires a batched machine"):
            m.set_active_lanes(np.array([True]))
        with pytest.raises(MaskError, match="requires a batched machine"):
            m.active_lanes

    def test_wrong_shape_raises(self):
        m = PPAMachine(PPAConfig(n=4), batch=3)
        with pytest.raises(MaskError, match="does not match batch"):
            m.set_active_lanes(np.array([True, False]))

    def test_default_all_active(self):
        m = PPAMachine(PPAConfig(n=4), batch=2)
        assert m.active_lanes.tolist() == [True, True]

    def test_none_reactivates_all(self):
        m = PPAMachine(PPAConfig(n=4), batch=2)
        m.set_active_lanes(np.array([False, True]))
        assert m.active_lanes.tolist() == [False, True]
        m.set_active_lanes(None)
        assert m.active_lanes.tolist() == [True, True]

    def test_mask_is_copied_both_ways(self):
        m = PPAMachine(PPAConfig(n=4), batch=2)
        src = np.array([True, False])
        m.set_active_lanes(src)
        src[0] = False  # caller mutation must not leak in
        assert m.active_lanes.tolist() == [True, False]
        view = m.active_lanes
        view[1] = True  # returned copy must not leak back
        assert m.active_lanes.tolist() == [True, False]

    def test_mask_gates_lane_ledger_not_scalar_counters(self):
        m = PPAMachine(PPAConfig(n=4), batch=3)
        m.set_active_lanes(np.array([True, False, True]))
        m.count_alu(5)
        # scalar stream: one controller charge regardless of the mask
        assert m.counters.alu_ops == 5
        planes = m.lane_counters.snapshot()
        assert planes["alu_ops"].tolist() == [5, 0, 5]
        assert planes["instructions"].tolist() == [5, 0, 5]

    def test_datapath_still_computes_masked_lanes(self):
        """The mask gates *cost*, not computation: a bus op on a batched
        machine yields results in every lane, converged or not."""
        m = PPAMachine(PPAConfig(n=4), batch=2)
        m.set_active_lanes(np.array([True, False]))
        vals = m.new_parallel(1)
        out = m.bus_reduce(
            vals, Direction.EAST, np.ones((4, 4), dtype=bool), "sum"
        )
        assert out.shape == (2, 4, 4)
        assert (out[1] == 1).all()  # masked lane computed anyway


class TestLanesView:
    def test_requires_unbatched(self):
        m = PPAMachine(PPAConfig(n=4), batch=2)
        with pytest.raises(MaskError, match="requires an unbatched machine"):
            m.lanes(2)

    def test_shares_counters_telemetry_trace_faults(self):
        m = PPAMachine(PPAConfig(n=4))
        view = m.lanes(3)
        assert view.batch == 3
        assert view.counters is m.counters
        assert view.telemetry is m.telemetry
        assert view.trace is m.trace
        assert view._faults is m._faults

    def test_view_charges_callers_scalar_counters(self):
        m = PPAMachine(PPAConfig(n=4))
        view = m.lanes(2)
        view.count_alu(3)
        assert m.counters.alu_ops == 3
        # per-lane ledger belongs to the view, not the parent
        assert m.lane_counters is None
        assert view.lane_counters.total()["alu_ops"] == 6

    def test_view_memory_is_private(self):
        m = PPAMachine(PPAConfig(n=4))
        view = m.lanes(2)
        assert view.memory is not m.memory
        assert view.new_parallel().shape == (2, 4, 4)
        assert m.new_parallel().shape == (4, 4)


class TestLaneGlobalOr:
    def test_requires_batched(self):
        m = PPAMachine(PPAConfig(n=4))
        with pytest.raises(MaskError, match="requires a batched machine"):
            m.lane_global_or(np.zeros((4, 4), dtype=bool))

    def test_per_lane_result(self):
        m = PPAMachine(PPAConfig(n=4), batch=3)
        bits = np.zeros((3, 4, 4), dtype=bool)
        bits[0, 2, 1] = True
        bits[2, 0, 0] = True
        assert m.lane_global_or(bits).tolist() == [True, False, True]

    def test_shared_plane_broadcasts_over_lanes(self):
        m = PPAMachine(PPAConfig(n=4), batch=2)
        plane = np.zeros((4, 4), dtype=bool)
        plane[1, 1] = True
        assert m.lane_global_or(plane).tolist() == [True, True]

    def test_charged_like_global_or(self):
        serial = PPAMachine(PPAConfig(n=4))
        serial.global_or(np.zeros((4, 4), dtype=bool))
        batched = PPAMachine(PPAConfig(n=4), batch=2)
        batched.lane_global_or(np.zeros((2, 4, 4), dtype=bool))
        assert batched.counters.snapshot() == serial.counters.snapshot()
        # and each active lane is charged that same serial price
        assert (
            batched.lane_counters.lane(0) == serial.counters.snapshot()
        )

    def test_masked_lane_not_charged(self):
        m = PPAMachine(PPAConfig(n=4), batch=2)
        m.set_active_lanes(np.array([False, True]))
        m.lane_global_or(np.zeros((2, 4, 4), dtype=bool))
        planes = m.lane_counters.snapshot()
        assert planes["global_ors"].tolist() == [0, 1]


class TestBatchedChargeParity:
    """A batched bus op charges each active lane exactly the serial price."""

    def test_broadcast_reduce_shift_parity(self):
        n = 4
        L = np.zeros((n, n), dtype=bool)
        L[:, 0] = True  # one Open per ring -> whole-ring clusters

        serial = PPAMachine(PPAConfig(n=n))
        v = np.arange(n * n, dtype=np.int64).reshape(n, n)
        serial.broadcast(v, Direction.EAST, L)
        serial.bus_reduce(v, Direction.EAST, L, "min")
        serial.shift(v, Direction.SOUTH)
        expected = serial.counters.snapshot()

        batched = PPAMachine(PPAConfig(n=n), batch=3)
        vb = np.broadcast_to(v, (3, n, n)).copy()
        batched.broadcast(vb, Direction.EAST, L)
        batched.bus_reduce(vb, Direction.EAST, L, "min")
        batched.shift(vb, Direction.SOUTH)
        # one SIMD stream -> scalar counters identical to one serial run
        assert batched.counters.snapshot() == expected
        # ... and so is every lane's ledger
        for lane in range(3):
            assert batched.lane_counters.lane(lane) == expected
        assert batched.lane_counters.total() == {
            k: 3 * v for k, v in expected.items()
        }
