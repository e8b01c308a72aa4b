"""Batched (lane-stack) bus resolution vs per-lane 2-D execution.

The 2-D kernels are property-tested against a naive ring-walking reference
in ``test_segments.py``; here the ``(B, n, n)`` batched paths — shared
2-D planes and per-lane 3-D plane stacks, through the ring-axis, gather
and segment-fill paths — must match running the (trusted) 2-D kernel once
per lane, including at the sizes where the fast paths engage. Also covers
plan-cache observability: hit/miss statistics, per-lane stacks resolved
on every call (so an in-place plane edit is always seen), both caches
cleared by ``clear_plan_cache``, and LRU-bounded memory under a huge
plane sweep.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BusError
from repro.ppa import segments
from repro.ppa.directions import Direction
from repro.ppa.segments import (
    broadcast_values,
    clear_plan_cache,
    plan_cache_sizes,
    plan_cache_stats,
    reset_plan_cache_stats,
    segmented_reduce,
    shift_values,
)

DIRECTIONS = list(Direction)
OPS = ("or", "min", "max", "sum")


@st.composite
def batched_case(draw):
    B = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    vals = draw(
        st.lists(
            st.lists(
                st.lists(st.integers(0, 255), min_size=cols, max_size=cols),
                min_size=rows, max_size=rows,
            ),
            min_size=B, max_size=B,
        )
    )
    opens = draw(
        st.lists(
            st.lists(
                st.lists(st.booleans(), min_size=cols, max_size=cols),
                min_size=rows, max_size=rows,
            ),
            min_size=B, max_size=B,
        )
    )
    direction = draw(st.sampled_from(DIRECTIONS))
    return np.array(vals), np.array(opens, dtype=bool), direction


class TestSharedPlaneBatched:
    """(B, n, n) values against one shared 2-D switch plane."""

    @given(batched_case())
    @settings(max_examples=60)
    def test_broadcast_matches_per_lane(self, case):
        vals, opens, direction = case
        shared = opens[0]
        got = broadcast_values(vals, shared, direction)
        for b in range(vals.shape[0]):
            want = broadcast_values(vals[b], shared, direction)
            assert np.array_equal(got[b], want)

    @given(batched_case(), st.sampled_from(OPS))
    @settings(max_examples=60)
    def test_reduce_matches_per_lane(self, case, op):
        vals, opens, direction = case
        shared = opens[0]
        if op == "or":
            vals = vals % 2 == 0
        got = segmented_reduce(vals, shared, direction, op)
        for b in range(vals.shape[0]):
            want = segmented_reduce(vals[b], shared, direction, op)
            assert np.array_equal(got[b], want)

    def test_fast_path_one_open_per_ring(self):
        """<=1 Open per ring takes the SIMD axis-reduction fast path."""
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 100, size=(3, 4, 4))
        L = np.zeros((4, 4), bool)
        L[:, 1] = True  # exactly one Open per row ring
        out = segmented_reduce(vals, L, Direction.EAST, "min")
        assert np.array_equal(out, vals.min(axis=-1, keepdims=True)
                              .repeat(4, axis=-1))
        got = broadcast_values(vals, L, Direction.EAST)
        assert np.array_equal(got, np.repeat(vals[:, :, 1:2], 4, axis=-1))

    def test_general_path_multi_open(self):
        vals = np.array([[[5, 3, 9, 1]], [[2, 8, 4, 6]]])
        L = np.array([[True, False, True, False]])
        out = segmented_reduce(vals, L, Direction.EAST, "min")
        assert out.tolist() == [[[3, 3, 1, 1]], [[2, 2, 4, 4]]]

    def test_result_is_writable(self):
        vals = np.arange(32).reshape(2, 4, 4)
        L = np.zeros((4, 4), bool)
        L[:, 0] = True
        out = segmented_reduce(vals, L, Direction.EAST, "max")
        out[0, 0, 0] = -1  # materialised, not a read-only broadcast view
        assert out[0, 0, 0] == -1

    def test_strict_raises_for_undriven_ring(self):
        vals = np.zeros((2, 3, 3))
        L = np.zeros((3, 3), bool)
        with pytest.raises(BusError, match="ring 0 has no Open switch"):
            broadcast_values(vals, L, Direction.EAST, strict=True)
        with pytest.raises(BusError, match="ring 0 has no Open"):
            segmented_reduce(vals, L, Direction.EAST, "or", strict=True)


class TestPerLaneStacks:
    """(B, n, n) values against per-lane (B, n, n) switch stacks."""

    @given(batched_case())
    @settings(max_examples=60)
    def test_broadcast_matches_per_lane(self, case):
        vals, opens, direction = case
        got = broadcast_values(vals, opens, direction)
        for b in range(vals.shape[0]):
            want = broadcast_values(vals[b], opens[b], direction)
            assert np.array_equal(got[b], want)

    @given(batched_case(), st.sampled_from(OPS))
    @settings(max_examples=60)
    def test_reduce_matches_per_lane(self, case, op):
        vals, opens, direction = case
        if op == "or":
            vals = vals % 2 == 0
        got = segmented_reduce(vals, opens, direction, op)
        for b in range(vals.shape[0]):
            want = segmented_reduce(vals[b], opens[b], direction, op)
            assert np.array_equal(got[b], want)

    def test_shared_2d_src_against_stack(self):
        src = np.arange(16).reshape(4, 4)
        L = np.zeros((3, 4, 4), bool)
        L[0, :, 0] = True
        L[1, :, 2] = True
        L[2] = np.eye(4, dtype=bool)
        got = broadcast_values(src, L, Direction.EAST)
        for b in range(3):
            assert np.array_equal(
                got[b], broadcast_values(src, L[b], Direction.EAST)
            )

    def test_strict_error_names_lane_and_ring(self):
        vals = np.zeros((2, 3, 3))
        L = np.ones((2, 3, 3), bool)
        L[1, 2] = False  # lane 1, row ring 2 un-driven (EAST)
        with pytest.raises(BusError, match="lane 1 ring 2"):
            broadcast_values(vals, L, Direction.EAST, strict=True)
        with pytest.raises(BusError, match="lane 1 ring 2"):
            segmented_reduce(vals, L, Direction.EAST, "or", strict=True)

    def test_bad_plane_rank_rejected(self):
        vals = np.zeros((2, 3, 3))
        with pytest.raises(ValueError, match="2-D or a"):
            broadcast_values(vals, np.zeros((2, 2, 3, 3), bool),
                             Direction.EAST)
        with pytest.raises(ValueError, match="2-D or a"):
            segmented_reduce(vals, np.zeros((3,), bool), Direction.EAST, "or")


class TestBatchedShift:
    @pytest.mark.parametrize("d", DIRECTIONS)
    def test_lane_stack_shift_matches_per_lane(self, d):
        rng = np.random.default_rng(1)
        vals = rng.integers(0, 50, size=(3, 4, 4))
        got = shift_values(vals, d)
        for b in range(3):
            assert np.array_equal(got[b], shift_values(vals[b], d))

    def test_linear_fill_applies_to_all_lanes(self):
        vals = np.arange(2 * 1 * 3).reshape(2, 1, 3)
        out = shift_values(vals, Direction.EAST, torus=False, fill=7)
        assert out[:, :, 0].ravel().tolist() == [7, 7]


class TestPlanCacheObservability:
    """Hit/miss accounting, per-call stack resolution, bounded memory."""

    def test_stats_count_hits_and_misses(self):
        clear_plan_cache()
        reset_plan_cache_stats()
        src = np.arange(16).reshape(4, 4)
        L = np.zeros((4, 4), bool)
        L[:, 0] = True
        stats = plan_cache_stats()
        broadcast_values(src, L, Direction.EAST)
        assert (stats.broadcast_misses, stats.broadcast_hits) == (1, 0)
        broadcast_values(src, L, Direction.EAST)
        assert (stats.broadcast_misses, stats.broadcast_hits) == (1, 1)
        segmented_reduce(src, L, Direction.EAST, "min")
        segmented_reduce(src, L, Direction.EAST, "min")
        assert (stats.reduce_misses, stats.reduce_hits) == (1, 1)
        assert stats.hits == 2 and stats.misses == 2

    def test_stats_sink_kwarg_receives_copies(self):
        from repro.ppa.counters import PlanCacheStats

        clear_plan_cache()
        sink = PlanCacheStats()
        src = np.zeros((3, 3))
        L = np.eye(3, dtype=bool)
        broadcast_values(src, L, Direction.EAST, stats=sink)
        broadcast_values(src, L, Direction.EAST, stats=sink)
        assert sink.broadcast_misses == 1 and sink.broadcast_hits == 1

    def test_batched_expanded_plans_count_once_per_call(self):
        clear_plan_cache()
        reset_plan_cache_stats()
        stats = plan_cache_stats()
        vals = np.zeros((3, 4, 4))
        L = np.zeros((4, 4), bool)
        L[:, 0] = True
        segmented_reduce(vals, L, Direction.EAST, "or")
        segmented_reduce(vals, L, Direction.EAST, "or")
        assert (stats.reduce_misses, stats.reduce_hits) == (1, 1)

    def test_mcp_inner_loop_hits_cache_2h_per_iteration(self):
        """The bit-serial min()/selected_min() issue ~2h wired-ORs per MCP
        iteration against one switch plane — after the first iteration,
        every one of them must be a plan-cache hit."""
        from repro.core import minimum_cost_path
        from repro.ppa import PPAConfig, PPAMachine
        from repro.workloads import WeightSpec, gnp_digraph

        clear_plan_cache()
        machine = PPAMachine(PPAConfig(n=8, word_bits=16))
        W = gnp_digraph(8, 0.4, seed=1, weights=WeightSpec(1, 9),
                        inf_value=machine.maxint)
        # Per-transaction observability is a cycle-engine property — the
        # fused engine issues no bus transactions at all.
        res = minimum_cost_path(machine, W, 2, engine="cycle")
        stats = machine.counters.plan_cache
        h = machine.word_bits
        # 2h wired-ORs per iteration (h for min, h for selected_min); all
        # but the first iteration's two resolutions hit the LRU.
        assert stats.reduce_hits >= 2 * h * (res.iterations - 1)
        # per-machine sink never enters the machine's cost vocabulary
        assert "plan_cache" not in machine.counters.snapshot()

    def test_clear_plan_cache_covers_both_caches(self):
        """Shared planes fill the broadcast and reduce LRUs, whether the
        values are one grid or a lane stack; per-lane stacks add nothing."""
        clear_plan_cache()
        src2 = np.arange(16).reshape(4, 4)
        src3 = np.arange(48).reshape(3, 4, 4)
        L2 = np.zeros((4, 4), bool)
        L2[:, 0] = True
        L3 = np.zeros((3, 4, 4), bool)
        L3[:, :, 0] = True
        L3[0, :, 2] = True
        broadcast_values(src3, L3, Direction.EAST)   # per-lane stacks:
        segmented_reduce(src3, L3, Direction.EAST, "or")  # no entries
        assert plan_cache_sizes() == {"broadcast": 0, "reduce": 0}
        broadcast_values(src2, L2, Direction.EAST)
        segmented_reduce(src2, L2, Direction.EAST, "or")
        broadcast_values(src3, L2, Direction.EAST)   # same plans, any B
        segmented_reduce(src3, L2, Direction.EAST, "or")
        assert plan_cache_sizes() == {"broadcast": 1, "reduce": 1}
        clear_plan_cache()
        assert plan_cache_sizes() == {"broadcast": 0, "reduce": 0}

    def test_stacks_resolve_on_every_call(self):
        """A per-lane (B, n, n) stack consults no cache: every transaction
        resolves it afresh (one miss per call), with identical answers."""
        clear_plan_cache()
        reset_plan_cache_stats()
        rng = np.random.default_rng(3)
        vals = rng.integers(0, 99, size=(4, 6, 6))
        L = rng.random((4, 6, 6)) < 0.3
        L[:, :, 0] = True  # every ring driven
        want_b = broadcast_values(vals, L, Direction.EAST)
        want_r = segmented_reduce(vals, L, Direction.EAST, "min")
        for _ in range(49):
            assert np.array_equal(
                broadcast_values(vals, L, Direction.EAST), want_b
            )
            assert np.array_equal(
                segmented_reduce(vals, L, Direction.EAST, "min"), want_r
            )
        stats = plan_cache_stats()
        assert (stats.broadcast_misses, stats.broadcast_hits) == (50, 0)
        assert (stats.reduce_misses, stats.reduce_hits) == (50, 0)
        assert plan_cache_sizes() == {"broadcast": 0, "reduce": 0}

    def test_stack_digest_invalidated_on_writeback(self):
        """Mutating a plane stack through the machine's store() is seen by
        the next transaction (the stack is resolved per call)."""
        from repro.ppa import PPAConfig, PPAMachine

        clear_plan_cache()
        machine = PPAMachine(PPAConfig(n=4, word_bits=8), batch=2)
        L = np.zeros((2, 4, 4), dtype=bool)
        L[:, :, 0] = True
        vals = np.arange(32, dtype=np.int64).reshape(2, 4, 4)
        got = machine.broadcast(vals, Direction.EAST, L)
        assert np.array_equal(got, np.repeat(vals[:, :, 0:1], 4, axis=-1))
        # Writeback: move the Open column from 0 to 1 *in place*.
        machine.store(L, np.roll(L, 1, axis=-1))
        got = machine.broadcast(vals, Direction.EAST, L)
        assert np.array_equal(got, np.repeat(vals[:, :, 1:2], 4, axis=-1))

    @pytest.mark.parametrize("edit", ["setitem", "memory_write"])
    def test_in_place_plane_edit_is_seen(self, edit):
        """Editing a plane stack in place without store() — plain item
        assignment or ParallelMemory.write — must change the next
        broadcast and reduction, never replay the old plane's answer."""
        from repro.ppa import PPAConfig, PPAMachine

        clear_plan_cache()
        machine = PPAMachine(PPAConfig(n=4, word_bits=8), batch=2)
        L = machine.memory.declare("L", "logical")
        L[:, :, 0] = True
        vals = np.arange(32, dtype=np.int64).reshape(2, 4, 4)
        zeros = np.zeros((2, 4, 4), dtype=bool)
        before_b = machine.broadcast(vals, Direction.EAST, L)
        before_r = machine.bus_reduce(vals, Direction.EAST, L, "min")
        assert np.array_equal(before_b, np.repeat(vals[:, :, :1], 4, -1))
        if edit == "setitem":
            L[:, :, 0] = False
            L[:, :, 2] = True
        else:
            moved = zeros.copy()
            moved[:, :, 2] = True
            machine.memory.write("L", moved)
        got = machine.broadcast(vals, Direction.EAST, L)
        assert np.array_equal(got, np.repeat(vals[:, :, 2:3], 4, axis=-1))
        assert np.array_equal(
            machine.bus_reduce(vals, Direction.EAST, L, "min"), before_r
        )  # one cluster per ring either way
        L[:, :, 0] = True  # two clusters per ring: columns {0, 1}, {2, 3}
        got = machine.bus_reduce(vals, Direction.EAST, L, "min")
        want = np.concatenate(
            [np.repeat(vals[:, :, 0:1], 2, -1), np.repeat(vals[:, :, 2:3], 2, -1)],
            axis=-1,
        )
        assert np.array_equal(got, want)

    def test_batched_mcp_shared_planes_hit(self):
        """The batched MCP issues its 2h wired-ORs per round against the
        shared col_last plane: after the first resolution every one is a
        plan-cache hit, while each per-lane transaction is one miss."""
        from repro.core.batched import batched_minimum_cost_path
        from repro.ppa import PPAConfig, PPAMachine
        from repro.workloads import WeightSpec, gnp_digraph

        clear_plan_cache()
        machine = PPAMachine(PPAConfig(n=8, word_bits=16), batch=8)
        W = gnp_digraph(8, 0.4, seed=5, weights=WeightSpec(1, 9),
                        inf_value=machine.maxint)
        res = batched_minimum_cost_path(
            machine, W, np.arange(8), engine="cycle"
        )
        stats = machine.counters.plan_cache
        rounds = int(res.iterations.max())
        h = machine.word_bits
        # Reductions: all against col_last, resolved once.
        assert (stats.reduce_misses, stats.reduce_hits) == (
            1, 2 * h * rounds - 1
        )
        # Broadcasts: col_d at init plus, per round, row_d and the two
        # survivor planes are per-lane (misses); diag and col_last are
        # shared and resolve once each.
        assert stats.broadcast_misses == 1 + 3 * rounds + 2
        assert stats.hits + stats.misses == res.counters["broadcasts"] + \
            res.counters["reductions"]

    def test_huge_plane_sweep_stays_bounded(self):
        """A sweep over 1000 distinct planes must evict, not accumulate."""
        clear_plan_cache()
        src = np.arange(16, dtype=np.int64).reshape(4, 4)
        src3 = np.broadcast_to(src, (2, 4, 4))
        rng = np.random.default_rng(7)
        for _ in range(1000):
            L = rng.random((4, 4)) < 0.4
            broadcast_values(src, L, Direction.EAST)
            segmented_reduce(src, L, Direction.EAST, "or")
            broadcast_values(src3, np.stack([L, ~L]), Direction.EAST)
            segmented_reduce(src3, np.stack([L, ~L]), Direction.EAST, "or")
        sizes = plan_cache_sizes()
        assert sizes["broadcast"] <= segments._PLAN_CACHE_SIZE
        assert sizes["reduce"] <= segments._PLAN_CACHE_SIZE


PLANE_KINDS = ("one", "survivors", "undriven", "all", "dense")


def _mcp_shaped_plane(kind, rng, B, n, direction):
    """Per-lane (B, n, n) switch stacks of the shapes the MCP listing
    presents, for rings along *direction*."""
    ring_axis = -1 if direction.axis == 1 else -2
    if kind == "one":  # row_d / col_d / a unique survivor
        pos = rng.integers(0, n, size=(B, n))
        plane = np.zeros((B, n, n), dtype=bool)
        np.put_along_axis(plane, np.expand_dims(pos, ring_axis), True,
                          axis=ring_axis)
        return plane
    if kind in ("survivors", "undriven"):  # min() survivors, with ties
        vals = rng.integers(0, 6, size=(B, n, n))
        plane = vals == vals.min(axis=ring_axis, keepdims=True)
        if kind == "undriven":
            dead = rng.random((B, n)) < 0.2
            plane &= ~np.expand_dims(dead, ring_axis)
        return plane
    if kind == "all":
        return np.ones((B, n, n), dtype=bool)
    return rng.random((B, n, n)) < 0.5  # dense random


class TestFastPathSizes:
    """Seeded checks at the sizes where the ring-axis, word-fold and
    segment-fill paths engage, against the 2-D kernel run lane by lane."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("kind", PLANE_KINDS)
    @pytest.mark.parametrize("B", [1, 3, 64])
    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_matches_per_lane_kernel(self, n, B, kind, direction, strict):
        seed = [n, B, PLANE_KINDS.index(kind), DIRECTIONS.index(direction),
                int(strict)]
        rng = np.random.default_rng(seed)
        stack = _mcp_shaped_plane(kind, rng, B, n, direction)
        words = rng.integers(0, 1 << 16, size=(B, n, n))
        bits = rng.random((B, n, n)) < 0.3
        ring_axis = -1 if direction.axis == 1 else -2
        for plane in (stack, stack[0]):  # per-lane stack, shared plane
            lanes = plane if plane.ndim == 3 else [plane] * B
            undriven = np.stack([~p.any(axis=ring_axis) for p in lanes])
            cases = [("broadcast", None, words)] + [
                ("reduce", op, bits if op in ("or", "and") else words)
                for op in ("or", "and", "min", "max", "sum")
            ]
            for what, op, vals in cases:
                def run(v, p, what=what, op=op):
                    if what == "broadcast":
                        return broadcast_values(v, p, direction,
                                                strict=strict)
                    return segmented_reduce(v, p, direction, op,
                                            strict=strict)

                if strict and undriven.any():
                    lane, ring = np.argwhere(undriven)[0]
                    where = (f"lane {lane} ring {ring}" if plane.ndim == 3
                             else f"ring {ring}")
                    with pytest.raises(BusError, match=where):
                        run(vals, plane)
                    continue
                got = run(vals, plane)
                want = np.stack([run(vals[b], lanes[b]) for b in range(B)])
                assert got.dtype == want.dtype, (what, op)
                assert np.array_equal(got, want), (what, op)
                assert got.flags.writeable and got.flags.c_contiguous
