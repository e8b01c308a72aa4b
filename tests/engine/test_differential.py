"""Differential cross-validation: fused == cycle, bit for bit.

The fused engine's contract is *exact* equivalence with the cycle engine —
SOW, PTN, iteration counts, the scalar counter book, and (batched) every
lane's serial-equivalent ledger. These property tests drive both engines
over random graphs, word widths, lane counts and convergence patterns and
compare everything. A second group pins *plan-cache independence*: warm or
cold bus-plan/cost-vector caches never change any ledger. A third checks
every engine's PTN and iteration count against the reference derivation
from the final SOW alone (``repro.engine._loop.reconstruct_cold_mcp``).

The generators are shared with ``test_compiled.py``, so they span both of
the compiled tier's kernels: plane densities on either side of
``EDGE_LIST_MAX_DENSITY``, tie-heavy ``{1, 2}`` weights, and a word
(``WIDE_WORD``) whose packed edge-list key fits at the smallest grids and
overflows at the larger ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import all_pairs_minimum_cost, minimum_cost_path
from repro.core.batched import batched_minimum_cost_path
from repro.engine import clear_cost_cache, edge_list
from repro.engine._loop import reconstruct_cold_mcp
from repro.errors import GraphError
from repro.ppa import PPAConfig, PPAMachine
from repro.ppa.segments import clear_plan_cache


#: Packed edge-list keys need ``word_bits + 1 + bit_length(n - 1) <= 63``:
#: at this width that holds for ``n <= 4`` and fails from ``n = 5``.
WIDE_WORD = 60


@st.composite
def graph_case(draw):
    n = draw(st.integers(2, 14))
    word_bits = draw(st.sampled_from([10, 12, 16, WIDE_WORD]))
    maxint = (1 << word_bits) - 1
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    high = draw(st.sampled_from([3, 9]))  # 3: tie-heavy {1, 2} weights
    W = rng.integers(1, high, size=(n, n)).astype(np.int64)
    W[rng.random((n, n)) >= density] = maxint
    np.fill_diagonal(W, 0)
    d = draw(st.integers(0, n - 1))
    return n, word_bits, W, d


def _run_pair(n, word_bits, W, d):
    cycle = minimum_cost_path(
        PPAMachine(PPAConfig(n=n, word_bits=word_bits)), W, d, engine="cycle"
    )
    fused = minimum_cost_path(
        PPAMachine(PPAConfig(n=n, word_bits=word_bits)), W, d, engine="fused"
    )
    return cycle, fused


class TestSerialEquivalence:
    @given(graph_case())
    @settings(max_examples=60)
    def test_sow_ptn_iterations_counters(self, case):
        n, word_bits, W, d = case
        cycle, fused = _run_pair(n, word_bits, W, d)
        assert np.array_equal(cycle.sow, fused.sow)
        assert np.array_equal(cycle.ptn, fused.ptn)
        assert cycle.iterations == fused.iterations
        assert cycle.counters == fused.counters

    def test_edgeless_graph(self):
        n = 6
        machine = PPAMachine(PPAConfig(n=n, word_bits=16))
        W = np.full((n, n), machine.maxint, dtype=np.int64)
        np.fill_diagonal(W, 0)
        cycle, fused = _run_pair(n, 16, W, 2)
        assert cycle.iterations == fused.iterations == 1
        assert cycle.counters == fused.counters

    def test_zero_diagonal_set_mode(self):
        rng = np.random.default_rng(3)
        W = rng.integers(1, 9, size=(5, 5)).astype(np.int64)
        a = minimum_cost_path(
            PPAMachine(PPAConfig(n=5, word_bits=16)), W, 1,
            zero_diagonal="set", engine="cycle",
        )
        b = minimum_cost_path(
            PPAMachine(PPAConfig(n=5, word_bits=16)), W, 1,
            zero_diagonal="set", engine="fused",
        )
        assert np.array_equal(a.sow, b.sow)
        assert np.array_equal(a.ptn, b.ptn)
        assert a.counters == b.counters

    def test_max_iterations_error_parity(self):
        # A 2-hop chain needs two relaxation rounds; cap at one.
        maxint = (1 << 16) - 1
        W = np.full((3, 3), maxint, dtype=np.int64)
        np.fill_diagonal(W, 0)
        W[1, 0] = 1
        W[2, 1] = 1
        for engine in ("cycle", "fused"):
            with pytest.raises(GraphError, match="did not converge"):
                minimum_cost_path(
                    PPAMachine(PPAConfig(n=3, word_bits=16)),
                    W, 0, max_iterations=1, engine=engine,
                )

    def test_smallest_index_tie_break(self):
        """Two equal-cost successors: both engines must pick the smaller
        column index (the bit-serial selected_min semantics)."""
        maxint = (1 << 16) - 1
        W = np.full((4, 4), maxint, dtype=np.int64)
        np.fill_diagonal(W, 0)
        W[3, 1] = 2
        W[3, 2] = 2
        W[1, 0] = 5
        W[2, 0] = 5
        cycle, fused = _run_pair(4, 16, W, 0)
        assert np.array_equal(cycle.ptn, fused.ptn)
        assert cycle.ptn[3] == 1  # not 2


@st.composite
def batched_case(draw):
    n = draw(st.integers(2, 10))
    B = draw(st.integers(1, 9))
    word_bits = draw(st.sampled_from([12, 16, WIDE_WORD]))
    maxint = (1 << word_bits) - 1
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    per_lane = draw(st.booleans())
    shape = (B, n, n) if per_lane else (n, n)
    high = draw(st.sampled_from([3, 9]))  # 3: tie-heavy {1, 2} weights
    W = rng.integers(1, high, size=shape).astype(np.int64)
    W[rng.random(shape) >= draw(st.floats(0.0, 1.0))] = maxint
    if per_lane:
        for b in range(B):
            np.fill_diagonal(W[b], 0)
    else:
        np.fill_diagonal(W, 0)
    dest = rng.integers(0, n, size=B)
    return n, B, word_bits, W, dest


class TestBatchedEquivalence:
    @given(batched_case())
    @settings(max_examples=40)
    def test_all_ledgers_lane_for_lane(self, case):
        n, B, word_bits, W, dest = case
        rc = batched_minimum_cost_path(
            PPAMachine(PPAConfig(n=n, word_bits=word_bits), batch=B),
            W, dest, engine="cycle",
        )
        rf = batched_minimum_cost_path(
            PPAMachine(PPAConfig(n=n, word_bits=word_bits), batch=B),
            W, dest, engine="fused",
        )
        assert np.array_equal(rc.sow, rf.sow)
        assert np.array_equal(rc.ptn, rf.ptn)
        assert np.array_equal(rc.iterations, rf.iterations)
        assert rc.counters == rf.counters
        assert set(rc.lane_counters) == set(rf.lane_counters)
        for name in rc.lane_counters:
            assert np.array_equal(
                rc.lane_counters[name], rf.lane_counters[name]
            ), name

    def test_fused_lane_ledger_matches_serial_runs(self):
        """Lane b of the fused batched ledger == a serial run of lane b —
        the same invariant the batched cycle engine guarantees."""
        rng = np.random.default_rng(11)
        n = 6
        maxint = (1 << 16) - 1
        W = rng.integers(1, 9, size=(n, n)).astype(np.int64)
        W[rng.random((n, n)) < 0.5] = maxint
        np.fill_diagonal(W, 0)
        res = batched_minimum_cost_path(
            PPAMachine(PPAConfig(n=n, word_bits=16), batch=n),
            W, np.arange(n), engine="fused",
        )
        for b in range(n):
            serial = minimum_cost_path(
                PPAMachine(PPAConfig(n=n, word_bits=16)), W, b,
                engine="cycle",
            )
            lane = res.lane(b)
            assert np.array_equal(lane.sow, serial.sow)
            assert np.array_equal(lane.ptn, serial.ptn)
            assert lane.iterations == serial.iterations
            assert lane.counters == serial.counters

    def test_unbatched_machine_gets_lanes_view(self):
        rng = np.random.default_rng(4)
        W = rng.integers(1, 9, size=(4, 4)).astype(np.int64)
        np.fill_diagonal(W, 0)
        machine = PPAMachine(PPAConfig(n=4, word_bits=16))
        res = batched_minimum_cost_path(machine, W, [0, 2], engine="fused")
        assert res.batch == 2
        # scalar book shared with the caller's machine
        assert machine.counters.snapshot() != {}

    def test_batched_max_iterations_error_parity(self):
        maxint = (1 << 16) - 1
        W = np.full((3, 3), maxint, dtype=np.int64)
        np.fill_diagonal(W, 0)
        W[1, 0] = 1
        W[2, 1] = 1
        for engine in ("cycle", "fused"):
            with pytest.raises(GraphError, match="did not converge"):
                batched_minimum_cost_path(
                    PPAMachine(PPAConfig(n=3, word_bits=16), batch=2),
                    W, [0, 1], max_iterations=1, engine=engine,
                )


class TestApspEquivalence:
    @pytest.mark.parametrize("lanes", [None, 3])
    def test_apsp_matrices_and_books(self, lanes):
        rng = np.random.default_rng(21)
        n = 7
        maxint = (1 << 16) - 1
        W = rng.integers(1, 9, size=(n, n)).astype(np.int64)
        W[rng.random((n, n)) < 0.5] = maxint
        np.fill_diagonal(W, 0)
        rc = all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=n, word_bits=16)), W,
            lanes=lanes, engine="cycle",
        )
        rf = all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=n, word_bits=16)), W,
            lanes=lanes, engine="fused",
        )
        assert np.array_equal(rc.dist, rf.dist)
        assert np.array_equal(rc.succ, rf.succ)
        assert np.array_equal(rc.iterations, rf.iterations)
        assert rc.counters == rf.counters
        assert rc.machine_counters == rf.machine_counters
        for name in rc.lane_counters:
            assert np.array_equal(
                rc.lane_counters[name], rf.lane_counters[name]
            )

    def test_serial_sweep_engine_flag_flows(self):
        rng = np.random.default_rng(22)
        n = 5
        W = rng.integers(1, 9, size=(n, n)).astype(np.int64)
        np.fill_diagonal(W, 0)
        rc = all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=n, word_bits=16)), W,
            serial=True, engine="cycle",
        )
        rf = all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=n, word_bits=16)), W,
            serial=True, engine="fused",
        )
        assert np.array_equal(rc.dist, rf.dist)
        assert rc.counters == rf.counters


class TestPlanCacheIndependence:
    """Host-side cache state (bus plans, digests, cost vectors) must never
    leak into any counter ledger."""

    def test_cold_vs_warm_caches_identical_books(self):
        rng = np.random.default_rng(31)
        n = 6
        maxint = (1 << 16) - 1
        W = rng.integers(1, 9, size=(n, n)).astype(np.int64)
        W[rng.random((n, n)) < 0.4] = maxint
        np.fill_diagonal(W, 0)

        def run(engine):
            res = batched_minimum_cost_path(
                PPAMachine(PPAConfig(n=n, word_bits=16), batch=n),
                W, np.arange(n), engine=engine,
            )
            return res.counters, {
                k: v.copy() for k, v in res.lane_counters.items()
            }

        clear_plan_cache()
        clear_cost_cache()
        cold_cycle = run("cycle")
        warm_cycle = run("cycle")
        cold_fused = run("fused")  # cost cache cold: probes here
        warm_fused = run("fused")
        assert cold_cycle[0] == warm_cycle[0] == cold_fused[0] == warm_fused[0]
        for name in cold_cycle[1]:
            ref = cold_cycle[1][name]
            for book in (warm_cycle[1], cold_fused[1], warm_fused[1]):
                assert np.array_equal(book[name], ref), name

    def test_fused_probe_may_warm_plan_caches_harmlessly(self, machine8):
        """The cost probe replays a cycle run, warming the module-wide bus
        plan caches; the caller's counters must be untouched by that."""
        clear_plan_cache()
        clear_cost_cache()
        rng = np.random.default_rng(32)
        W = rng.integers(1, 9, size=(8, 8)).astype(np.int64)
        np.fill_diagonal(W, 0)
        res = minimum_cost_path(machine8, W, 0, engine="fused")
        assert res.counters == machine8.counters.snapshot()


class TestPtnReference:
    """PTN and the iteration count are a pure function of the weights,
    the final SOW and the destination: every engine, single and
    batched, must return exactly what the reference sweep derives."""

    @pytest.mark.parametrize("word_bits", [8, 16])
    def test_every_engine_matches_reconstruction(self, word_bits):
        rng = np.random.default_rng(word_bits)
        maxint = (1 << word_bits) - 1
        kernels = set()
        for n in range(3, 12):
            for density in (0.15, 0.5, 1.0):
                W = rng.integers(1, 4, size=(n, n)).astype(np.int64)
                W[rng.random((n, n)) >= density] = maxint
                np.fill_diagonal(W, 0)
                kernels.add(edge_list(W, maxint) is None)
                for engine in ("cycle", "fused", "compiled"):
                    batched = batched_minimum_cost_path(
                        PPAMachine(PPAConfig(n=n, word_bits=word_bits)),
                        W, np.arange(n), engine=engine,
                    )
                    for d in range(n):
                        single = minimum_cost_path(
                            PPAMachine(PPAConfig(n=n, word_bits=word_bits)),
                            W, d, engine=engine,
                        )
                        context = (n, density, engine, d)
                        for sow, ptn, iterations in (
                            (single.sow, single.ptn, single.iterations),
                            (batched.sow[d], batched.ptn[d],
                             batched.iterations[d]),
                        ):
                            ref_ptn, ref_it = reconstruct_cold_mcp(
                                W, sow, d, maxint)
                            assert np.array_equal(ref_ptn, ptn), context
                            assert ref_it == iterations, context
                        # one below the fixpoint at a reachable vertex:
                        # no tree grounds it, so the sweep must refuse
                        low = single.sow.astype(np.int64)
                        reachable = np.flatnonzero((low > 0) & (low < maxint))
                        if reachable.size:
                            low[reachable[0]] -= 1
                            with pytest.raises(GraphError):
                                reconstruct_cold_mcp(W, low, d, maxint)
        assert kernels == {False, True}  # edge list and dense tiles ran
