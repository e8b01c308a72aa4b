"""Bus resolution: broadcast and segmented reductions vs a naive reference.

The naive reference walks each ring with Python loops, implementing the
documented semantics directly (cluster = Open head + downstream Shorts,
cyclic); the vectorised implementation must agree on every input.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import BusError
from repro.ppa.directions import Direction
from repro.ppa.segments import broadcast_values, segmented_reduce, shift_values

DIRECTIONS = list(Direction)


# ---------------------------------------------------------------------------
# Naive reference semantics
# ---------------------------------------------------------------------------


def ring_views(arr: np.ndarray, direction: Direction):
    """Yield (ring_index, 1-D ring in downstream order, writeback fn)."""
    a = arr if direction.axis == 1 else arr.T
    for r in range(a.shape[0]):
        ring = a[r] if direction.is_forward else a[r][::-1]
        yield r, np.array(ring)


def naive_broadcast(src, open_plane, direction):
    src = np.asarray(src)
    out = np.empty_like(src)
    o_canon = dict(ring_views(np.asarray(open_plane, bool), direction))
    s_canon = dict(ring_views(src, direction))
    res = {}
    for r, opens in o_canon.items():
        vals = s_canon[r]
        n = len(vals)
        got = vals.copy()
        if opens.any():
            for i in range(n):
                j = i
                # nearest Open at-or-upstream, wrapping
                for _ in range(n):
                    if opens[j]:
                        break
                    j = (j - 1) % n
                got[i] = vals[j]
        res[r] = got
    # reassemble
    out_c = np.stack([res[r] if direction.is_forward else res[r][::-1]
                      for r in range(len(res))])
    return out_c if direction.axis == 1 else out_c.T


def naive_reduce(values, open_plane, direction, op):
    import operator

    fns = {
        "or": lambda a, b: a | b,
        "and": lambda a, b: a & b,
        "min": min,
        "max": max,
        "sum": operator.add,
    }
    f = fns[op]
    values = np.asarray(values)
    o_canon = dict(ring_views(np.asarray(open_plane, bool), direction))
    v_canon = dict(ring_views(values, direction))
    res = {}
    for r, opens in o_canon.items():
        vals = v_canon[r]
        n = len(vals)
        got = np.empty_like(vals)
        if not opens.any():
            total = vals[0]
            for v in vals[1:]:
                total = f(total, v)
            got[:] = total
        else:
            # head of i = nearest Open at-or-upstream
            heads = np.empty(n, dtype=int)
            for i in range(n):
                j = i
                while not opens[j]:
                    j = (j - 1) % n
                heads[i] = j
            for h in set(heads):
                members = [i for i in range(n) if heads[i] == h]
                total = vals[members[0]]
                for i in members[1:]:
                    total = f(total, vals[i])
                for i in members:
                    got[i] = total
        res[r] = got
    out_c = np.stack([res[r] if direction.is_forward else res[r][::-1]
                      for r in range(len(res))])
    return out_c if direction.axis == 1 else out_c.T


# ---------------------------------------------------------------------------
# Hand-built cases
# ---------------------------------------------------------------------------


class TestBroadcastBasics:
    def test_single_open_row_drives_whole_column_ring(self):
        src = np.arange(16).reshape(4, 4)
        L = np.zeros((4, 4), bool)
        L[1] = True  # row 1 open on every column
        out = broadcast_values(src, L, Direction.SOUTH)
        assert np.array_equal(out, np.tile(src[1], (4, 1)))

    def test_open_node_receives_its_own_value(self):
        src = np.arange(16).reshape(4, 4)
        L = np.zeros((4, 4), bool)
        L[2] = True
        out = broadcast_values(src, L, Direction.SOUTH)
        assert np.array_equal(out[2], src[2])

    def test_two_opens_split_ring(self):
        src = np.array([[10, 11, 12, 13]])
        L = np.array([[True, False, True, False]])
        out = broadcast_values(src, L, Direction.EAST)
        # EAST: head at-or-west. cols 0,1 -> head 0; cols 2,3 -> head 2
        assert out.tolist() == [[10, 10, 12, 12]]

    def test_west_direction_reverses_cluster_side(self):
        src = np.array([[10, 11, 12, 13]])
        L = np.array([[True, False, True, False]])
        out = broadcast_values(src, L, Direction.WEST)
        # WEST: downstream decreasing col; head at-or-east.
        # col 3 -> wraps to head 0; cols 2,1 -> head 2; col 0 -> head 0
        assert out.tolist() == [[10, 12, 12, 10]]

    def test_no_open_permissive_is_identity(self):
        src = np.arange(12).reshape(3, 4)
        L = np.zeros((3, 4), bool)
        out = broadcast_values(src, L, Direction.EAST)
        assert np.array_equal(out, src)

    def test_no_open_strict_raises(self):
        src = np.zeros((3, 3))
        with pytest.raises(BusError, match="no Open switch"):
            broadcast_values(
                src, np.zeros((3, 3), bool), Direction.NORTH, strict=True
            )

    def test_partial_open_strict_raises_only_for_bad_ring(self):
        src = np.zeros((2, 2))
        L = np.array([[True, True], [True, True]])
        # all rings fine
        broadcast_values(src, L, Direction.EAST, strict=True)
        L = np.array([[True, False], [False, False]])
        with pytest.raises(BusError):
            broadcast_values(src, L, Direction.EAST, strict=True)

    def test_all_open_is_identity(self):
        src = np.arange(16).reshape(4, 4) * 3
        L = np.ones((4, 4), bool)
        for d in DIRECTIONS:
            assert np.array_equal(broadcast_values(src, L, d), src)

    def test_bool_payload_preserved(self):
        src = np.eye(4, dtype=bool)
        L = np.zeros((4, 4), bool)
        L[:, 0] = True
        out = broadcast_values(src, L, Direction.EAST)
        assert out.dtype == np.bool_
        assert np.array_equal(out, np.tile(src[:, :1], (1, 4)))


class TestReduceBasics:
    def test_whole_ring_or(self):
        bits = np.zeros((3, 3), bool)
        bits[0, 2] = True
        L = np.zeros((3, 3), bool)
        L[:, 0] = True  # one head per row ring
        out = segmented_reduce(bits, L, Direction.EAST, "or")
        assert out[0].all() and not out[1:].any()

    def test_two_cluster_min(self):
        vals = np.array([[5, 3, 9, 1]])
        L = np.array([[True, False, True, False]])
        out = segmented_reduce(vals, L, Direction.EAST, "min")
        assert out.tolist() == [[3, 3, 1, 1]]

    def test_sum_over_clusters(self):
        vals = np.array([[1, 2, 3, 4]])
        L = np.array([[True, False, False, True]])
        out = segmented_reduce(vals, L, Direction.EAST, "sum")
        # clusters: {0,1,2} and {3}
        assert out.tolist() == [[6, 6, 6, 4]]

    def test_cyclic_cluster_wraps(self):
        vals = np.array([[7, 2, 5, 4]])
        L = np.array([[False, True, False, False]])
        out = segmented_reduce(vals, L, Direction.EAST, "max")
        # single head at col 1: whole ring is one cluster
        assert out.tolist() == [[7, 7, 7, 7]]

    def test_no_open_reduces_whole_ring(self):
        vals = np.array([[4, 9, 1]])
        out = segmented_reduce(
            vals, np.zeros((1, 3), bool), Direction.EAST, "min"
        )
        assert out.tolist() == [[1, 1, 1]]

    def test_no_open_strict_raises(self):
        with pytest.raises(BusError):
            segmented_reduce(
                np.zeros((2, 2)),
                np.zeros((2, 2), bool),
                Direction.SOUTH,
                "or",
                strict=True,
            )

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown reduction"):
            segmented_reduce(
                np.zeros((2, 2)), np.ones((2, 2), bool), Direction.EAST, "xor"
            )

    def test_all_open_is_identity(self):
        vals = np.arange(9).reshape(3, 3)
        L = np.ones((3, 3), bool)
        for op in ("min", "max", "sum"):
            out = segmented_reduce(vals, L, Direction.WEST, op)
            assert np.array_equal(out, vals), op


class TestShift:
    def test_east_moves_data_right(self):
        src = np.array([[1, 2, 3, 4]])
        assert shift_values(src, Direction.EAST).tolist() == [[4, 1, 2, 3]]

    def test_west_moves_data_left(self):
        src = np.array([[1, 2, 3, 4]])
        assert shift_values(src, Direction.WEST).tolist() == [[2, 3, 4, 1]]

    def test_south_moves_data_down(self):
        src = np.array([[1], [2], [3]])
        assert shift_values(src, Direction.SOUTH).ravel().tolist() == [3, 1, 2]

    def test_north_moves_data_up(self):
        src = np.array([[1], [2], [3]])
        assert shift_values(src, Direction.NORTH).ravel().tolist() == [2, 3, 1]

    def test_linear_fill(self):
        src = np.array([[1, 2, 3]])
        out = shift_values(src, Direction.EAST, torus=False, fill=9)
        assert out.tolist() == [[9, 1, 2]]

    @pytest.mark.parametrize("d", DIRECTIONS)
    def test_shift_then_opposite_restores(self, d):
        src = np.arange(20).reshape(4, 5)
        back = shift_values(shift_values(src, d), d.opposite())
        assert np.array_equal(back, src)


# ---------------------------------------------------------------------------
# Property tests against the naive reference
# ---------------------------------------------------------------------------

grids = st.integers(min_value=1, max_value=6)


@st.composite
def grid_case(draw):
    rows = draw(grids)
    cols = draw(grids)
    vals = draw(
        st.lists(
            st.lists(st.integers(0, 255), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    opens = draw(
        st.lists(
            st.lists(st.booleans(), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    direction = draw(st.sampled_from(DIRECTIONS))
    return np.array(vals), np.array(opens, dtype=bool), direction


@given(grid_case())
def test_broadcast_matches_naive(case):
    vals, opens, direction = case
    got = broadcast_values(vals, opens, direction)
    want = naive_broadcast(vals, opens, direction)
    assert np.array_equal(got, want)


@given(grid_case(), st.sampled_from(["min", "max", "sum"]))
def test_reduce_matches_naive(case, op):
    vals, opens, direction = case
    got = segmented_reduce(vals, opens, direction, op)
    want = naive_reduce(vals, opens, direction, op)
    assert np.array_equal(got, want)


@given(grid_case())
def test_or_matches_naive(case):
    vals, opens, direction = case
    bits = vals % 2 == 0
    got = segmented_reduce(bits, opens, direction, "or")
    want = naive_reduce(bits, opens, direction, "or")
    assert np.array_equal(got.astype(bool), want.astype(bool))


@pytest.mark.parametrize("n", [8, 16, 24, 32, 64, 128])
@pytest.mark.parametrize("op", ["or", "and"])
def test_packed_row_wired_or_and_match_naive(n, op):
    """Boolean row reductions with whole-row clusters pack each row into
    words of 1, 2, 4 or 8 bytes (one or several per row); sparse, dense,
    empty and full rows all agree with the naive ring walk."""
    rng = np.random.default_rng(n)
    density = rng.choice([0.0, 0.02, 0.5, 0.98, 1.0], size=(n, 1))
    bits = rng.random((n, n)) < density
    bits[0] = False
    bits[0, -1] = True  # only the last PE set: in the row's last word
    bits[1] = True
    bits[1, -1] = False  # only the last PE clear
    for direction in (Direction.EAST, Direction.WEST):
        for opens in (np.zeros((n, n), bool), np.eye(n, dtype=bool)[::-1]):
            got = segmented_reduce(bits, opens, direction, op)
            want = naive_reduce(bits, opens, direction, op)
            assert got.dtype == bool
            assert np.array_equal(got, want)


@given(grid_case())
def test_broadcast_idempotent(case):
    """Broadcasting a broadcast result again with the same L is a no-op."""
    vals, opens, direction = case
    once = broadcast_values(vals, opens, direction)
    twice = broadcast_values(once, opens, direction)
    assert np.array_equal(once, twice)


@given(grid_case())
def test_reduce_delivers_cluster_constant(case):
    """All members of one cluster receive the same reduction result."""
    vals, opens, direction = case
    red = segmented_reduce(vals, opens, direction, "min")
    # a second min-reduce over the same clusters must be a fixed point
    again = segmented_reduce(red, opens, direction, "min")
    assert np.array_equal(red, again)


class TestPlanCache:
    """The bus-plan LRU must be invisible except in speed."""

    def test_distinct_planes_not_confused(self):
        from repro.ppa.segments import clear_plan_cache

        clear_plan_cache()
        src = np.arange(16).reshape(4, 4)
        L1 = np.zeros((4, 4), bool)
        L1[:, 0] = True
        L2 = np.zeros((4, 4), bool)
        L2[:, 2] = True
        a1 = broadcast_values(src, L1, Direction.EAST)
        a2 = broadcast_values(src, L2, Direction.EAST)
        # repeat in swapped order -> must hit cache yet stay correct
        b2 = broadcast_values(src, L2, Direction.EAST)
        b1 = broadcast_values(src, L1, Direction.EAST)
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2)
        assert not np.array_equal(a1, a2)

    def test_same_plane_different_direction(self):
        src = np.arange(16).reshape(4, 4)
        L = np.zeros((4, 4), bool)
        L[0, :] = True
        south = broadcast_values(src, L, Direction.SOUTH)
        north = broadcast_values(src, L, Direction.NORTH)
        assert np.array_equal(south, np.tile(src[0], (4, 1)))
        assert np.array_equal(north, np.tile(src[0], (4, 1)))

    def test_strict_error_survives_caching(self):
        from repro.ppa.segments import clear_plan_cache

        clear_plan_cache()
        src = np.zeros((3, 3))
        L = np.zeros((3, 3), bool)
        broadcast_values(src, L, Direction.EAST)  # permissive: cached plan
        with pytest.raises(BusError):
            broadcast_values(src, L, Direction.EAST, strict=True)

    def test_reduce_cache_respects_op(self):
        vals = np.array([[3, 1, 4, 1]])
        L = np.array([[True, False, True, False]])
        mn = segmented_reduce(vals, L, Direction.EAST, "min")
        mx = segmented_reduce(vals, L, Direction.EAST, "max")
        assert mn.tolist() == [[1, 1, 1, 1]]
        assert mx.tolist() == [[3, 3, 4, 4]]

    def test_cache_eviction_keeps_correctness(self):
        from repro.ppa import segments

        segments.clear_plan_cache()
        src = np.arange(36).reshape(6, 6)
        results = {}
        for k in range(80):  # > cache size: forces evictions
            L = np.zeros((6, 6), bool)
            L[:, k % 6] = True
            results[k % 6] = broadcast_values(src, L, Direction.EAST)
        for col, out in results.items():
            L = np.zeros((6, 6), bool)
            L[:, col] = True
            assert np.array_equal(out, broadcast_values(src, L, Direction.EAST))

    def test_clear_plan_cache(self):
        from repro.ppa import segments

        src = np.arange(9).reshape(3, 3)
        L = np.eye(3, dtype=bool)
        broadcast_values(src, L, Direction.EAST)
        segments.clear_plan_cache()
        assert len(segments._broadcast_plans) == 0
        assert len(segments._reduce_plans) == 0
