"""Differential cross-validation: compiled == fused == cycle, bit for bit.

The compiled tier's contract is identical to the fused engine's — exact
equivalence with the cycle engine on SOW/PTN, iteration counts, the scalar
counter book and every per-lane serial-equivalent ledger — computed
through an edge-list kernel on sparse shared planes and cache-blocked
dense tiles everywhere else. The property tests here drive all three
engines over random graphs on both sides of ``EDGE_LIST_MAX_DENSITY`` and
of the packed-key word limit, word widths and lane counts. Explicit cases
pin tie-heavy graphs, empty rows, warm seeds and per-lane stacks, and
sweep the dense tiles' block size (including degenerate 1-row tiles) to
pin the cross-tile argmin tie-break; each states which kernel it runs.
The jagged kernel, which serves edge-list calls from
``LANE_MINOR_MIN_LANES`` lanes, is checked against the whole-array kernel
directly, re-runs the kernel-choice cases with the threshold at 1, and
meets the CSR list on both sides of its int32 key width and on an
``n = 512`` shard.
"""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import repro.engine.compiled as compiled
from repro.core import all_pairs_minimum_cost, minimum_cost_path
from repro.core.batched import batched_minimum_cost_path
from repro.engine import (
    EDGE_LIST_MAX_DENSITY,
    LANE_MINOR_MIN_LANES,
    blocked_relax,
    compiled_kernel_info,
    edge_list,
    edge_relax,
    lane_block,
    row_block,
)
from repro.engine.compiled import (
    PreparedPlane,
    _relax_numpy_blocked,
    jagged_layout,
    jagged_relax,
    relax_kernel,
)
from repro.engine.fused import _relax
from repro.errors import GraphError
from repro.ppa import PPAConfig, PPAMachine
from repro.serve.delta import apply_edge_delta, certify_warm_plane
from repro.workloads.generators import gnp_digraph

from tests.engine.test_differential import batched_case, graph_case


def _kernel(W, word_bits) -> str:
    """Which compiled kernel relaxes the shared plane *W*."""
    plane = np.asarray(W, dtype=np.int64)
    found = edge_list(plane, (1 << word_bits) - 1)
    return "dense" if found is None else "edge-list"


def _run_three(n, word_bits, W, d, **kwargs):
    return {
        engine: minimum_cost_path(
            PPAMachine(PPAConfig(n=n, word_bits=word_bits)), W, d,
            engine=engine, **kwargs,
        )
        for engine in ("cycle", "fused", "compiled")
    }


def _assert_serial_equal(ref, res, context):
    assert np.array_equal(ref.sow, res.sow), context
    assert np.array_equal(ref.ptn, res.ptn), context
    assert ref.iterations == res.iterations, context
    assert ref.counters == res.counters, context


def _assert_batched_equal(ref, res, context):
    assert np.array_equal(ref.sow, res.sow), context
    assert np.array_equal(ref.ptn, res.ptn), context
    assert np.array_equal(ref.iterations, res.iterations), context
    assert ref.counters == res.counters, context
    assert set(ref.lane_counters) == set(res.lane_counters), context
    for name in ref.lane_counters:
        assert np.array_equal(
            ref.lane_counters[name], res.lane_counters[name]
        ), f"{context}: {name}"


def spy_jagged(monkeypatch, threshold=None) -> list:
    """Record the key dtype of every jagged-kernel round, after setting
    the lane threshold to *threshold* when given."""
    if threshold is not None:
        monkeypatch.setattr(compiled, "LANE_MINOR_MIN_LANES", threshold)
    seen = []
    relax = compiled.jagged_relax

    def spy(sow, layout, maxint):
        seen.append(layout.dtype)
        return relax(sow, layout, maxint)

    monkeypatch.setattr(compiled, "jagged_relax", spy)
    return seen


def _sparse(n, rng, density, maxint, high=9):
    W = rng.integers(1, high, size=(n, n)).astype(np.int64)
    W[rng.random((n, n)) >= density] = maxint
    np.fill_diagonal(W, 0)
    return W


class TestSerialEquivalence:
    @given(graph_case())
    @settings(max_examples=60)
    def test_sow_ptn_iterations_counters(self, case):
        n, word_bits, W, d = case
        event(_kernel(W, word_bits))
        runs = _run_three(n, word_bits, W, d)
        ref = runs["cycle"]
        for engine in ("fused", "compiled"):
            _assert_serial_equal(ref, runs[engine], engine)

    def test_block_size_sweep_is_bit_identical(self, monkeypatch):
        """Every tile size — including 1-row tiles, which maximise the
        number of cross-tile argmin merges — gives the same answer."""
        rng = np.random.default_rng(9)
        n = 17  # prime: tiles never divide evenly
        maxint = (1 << 16) - 1
        W = rng.integers(1, 9, size=(n, n)).astype(np.int64)
        W[rng.random((n, n)) < 0.3] = maxint
        np.fill_diagonal(W, 0)
        assert _kernel(W, 16) == "dense"
        ref = minimum_cost_path(
            PPAMachine(PPAConfig(n=n, word_bits=16)), W, 3, engine="fused"
        )
        for block in (1, 2, 5, 16, 1000):
            monkeypatch.setattr(compiled, "row_block",
                                lambda batch, n, rows=block: min(rows, n))
            res = minimum_cost_path(
                PPAMachine(PPAConfig(n=n, word_bits=16)), W, 3,
                engine="compiled",
            )
            assert np.array_equal(ref.sow, res.sow), block
            assert np.array_equal(ref.ptn, res.ptn), block
            assert ref.counters == res.counters, block

    def test_smallest_index_tie_break_across_tiles(self, monkeypatch):
        """Equal-cost successors in different tiles: the blocked kernel
        must keep numpy's first-occurrence (smallest-index) winner. Every
        non-edge of the sparse version is a costly finite edge here, so
        the plane is complete and runs on the dense tiles."""
        monkeypatch.setattr(compiled, "row_block", lambda batch, n: 1)
        W = np.full((4, 4), 100, dtype=np.int64)
        np.fill_diagonal(W, 0)
        W[3, 1] = 2
        W[3, 2] = 2
        W[1, 0] = 5
        W[2, 0] = 5
        assert _kernel(W, 16) == "dense"
        res = minimum_cost_path(
            PPAMachine(PPAConfig(n=4, word_bits=16)), W, 0,
            engine="compiled",
        )
        assert res.ptn[3] == 1  # not 2

    def test_smallest_index_tie_break_on_edge_list(self):
        """The same tie inside one packed-key segment: the smaller
        column's key is the smaller key."""
        maxint = (1 << 16) - 1
        W = np.full((8, 8), maxint, dtype=np.int64)
        np.fill_diagonal(W, 0)
        W[3, 1] = 2
        W[3, 2] = 2
        W[1, 0] = 5
        W[2, 0] = 5
        assert _kernel(W, 16) == "edge-list"
        runs = _run_three(8, 16, W, 0)
        _assert_serial_equal(runs["cycle"], runs["compiled"], "edge-list")
        assert runs["compiled"].ptn[3] == 1  # not 2

    def test_max_iterations_error_parity(self):
        maxint = (1 << 16) - 1
        W = np.full((3, 3), maxint, dtype=np.int64)
        np.fill_diagonal(W, 0)
        W[1, 0] = 1
        W[2, 1] = 1
        with pytest.raises(GraphError, match="did not converge"):
            minimum_cost_path(
                PPAMachine(PPAConfig(n=3, word_bits=16)),
                W, 0, max_iterations=1, engine="compiled",
            )


class TestKernelChoice:
    """Explicit cases on each side of the kernel rule."""

    def test_tie_heavy_graphs_match_fused(self):
        """300 seeded APSP sweeps with weights in {1, 2} — ties at every
        row — on both kernels, lane for lane."""
        rng = np.random.default_rng(1603)
        maxint = (1 << 16) - 1
        seen = {"edge-list": 0, "dense": 0}
        for trial in range(300):
            n = int(rng.integers(2, 13))
            W = _sparse(n, rng, float(rng.random()), maxint, high=3)
            seen[_kernel(W, 16)] += 1
            ref, res = (
                all_pairs_minimum_cost(
                    PPAMachine(PPAConfig(n=n, word_bits=16)), W,
                    engine=engine,
                )
                for engine in ("fused", "compiled")
            )
            assert np.array_equal(ref.dist, res.dist), trial
            assert np.array_equal(ref.succ, res.succ), trial
            assert np.array_equal(ref.iterations, res.iterations), trial
            assert ref.counters == res.counters, trial
            for name in ref.lane_counters:
                assert np.array_equal(
                    ref.lane_counters[name], res.lane_counters[name]
                ), (trial, name)
        assert min(seen.values()) >= 50, seen

    def test_empty_rows_under_keep(self):
        """Rows with no entry below MAXINT (possible only when the
        diagonal is kept), trailing ones included: ``reduceat`` must never
        see their empty segments."""
        n = 9
        maxint = (1 << 16) - 1
        rng = np.random.default_rng(5)
        W = _sparse(n, rng, 0.35, maxint, high=3)
        W[[2, 5, 7, 8]] = maxint  # two trailing empty rows
        np.fill_diagonal(W[:2, :2], maxint)
        edges = edge_list(W, maxint)
        assert edges is not None and edges.rows is not None
        assert not set(edges.rows.tolist()) & {2, 5, 7, 8}
        for d in range(n):
            runs = _run_three(n, 16, W, d, zero_diagonal="keep")
            for engine in ("fused", "compiled"):
                _assert_serial_equal(runs["cycle"], runs[engine], (d, engine))

    def test_all_maxint_plane(self):
        n = 6
        maxint = (1 << 16) - 1
        W = np.full((n, n), maxint, dtype=np.int64)
        edges = edge_list(W, maxint)
        assert edges is not None and edges.cols.size == 0
        runs = _run_three(n, 16, W, 2, zero_diagonal="keep")
        for engine in ("fused", "compiled"):
            _assert_serial_equal(runs["cycle"], runs[engine], engine)
        batched = {
            engine: batched_minimum_cost_path(
                PPAMachine(PPAConfig(n=n, word_bits=16), batch=n), W,
                np.arange(n), zero_diagonal="keep", engine=engine,
            )
            for engine in ("fused", "compiled")
        }
        _assert_batched_equal(batched["fused"], batched["compiled"], "B=n")

    @pytest.mark.parametrize("word_bits, kernel", [
        (60, "edge-list"),  # 60 + 1 + 2 == 63: the widest packed key
        (61, "dense"),
        (62, "dense"),
    ])
    def test_packed_key_word_limit(self, word_bits, kernel, monkeypatch):
        """At n = 4 a key holds a word sum plus 2 column bits; past 63
        bits the dense tiles must run, with identical results, whatever
        the density. Weights near the headroom limit fill the high bits,
        and unreached (MAXINT) state adds to them."""
        monkeypatch.setattr(compiled, "EDGE_LIST_MAX_DENSITY", 2.0)
        n = 4
        maxint = (1 << word_bits) - 1
        rng = np.random.default_rng(word_bits)
        big = maxint // n
        W = rng.integers(big // 2, big, size=(n, n)).astype(np.int64)
        W[0, 2] = W[3, 1] = W[2, 0] = maxint
        np.fill_diagonal(W, 0)
        assert _kernel(W, word_bits) == kernel
        for d in range(n):
            runs = _run_three(n, word_bits, W, d)
            for engine in ("fused", "compiled"):
                _assert_serial_equal(runs["cycle"], runs[engine], (d, engine))
        ref, res = (
            all_pairs_minimum_cost(
                PPAMachine(PPAConfig(n=n, word_bits=word_bits)), W,
                engine=engine,
            )
            for engine in ("fused", "compiled")
        )
        assert np.array_equal(ref.dist, res.dist)
        assert np.array_equal(ref.succ, res.succ)

    def test_warm_seed_on_edge_list(self):
        """Certified warm seeds through the edge list: warm == cold ==
        fused on SOW, PTN and iterations."""
        rng = np.random.default_rng(77)
        maxint = (1 << 16) - 1
        for trial in range(10):
            n = int(rng.integers(8, 16))
            m = PPAMachine(PPAConfig(n=n, word_bits=16))
            W_old = _sparse(n, rng, 0.2, maxint)
            edges = []
            for _ in range(3):
                u = int(rng.integers(0, n))
                v = int(rng.integers(0, n - 1))
                v += v >= u
                edges.append((u, v, int(rng.integers(1, 10))))
            W_new = apply_edge_delta(W_old, edges, maxint)
            assert _kernel(W_new, 16) == "edge-list"
            for d in range(n):
                old = minimum_cost_path(m, W_old, d, engine="compiled")
                seed = certify_warm_plane(W_new, old.sow[:, None],
                                          old.ptn[:, None], [d], maxint)[:, 0]
                cold = minimum_cost_path(m, W_new, d, engine="fused")
                for engine in ("fused", "compiled"):
                    warm = minimum_cost_path(m, W_new, d, engine=engine,
                                             warm_sow=seed)
                    assert np.array_equal(warm.sow, cold.sow), (trial, d)
                    assert np.array_equal(warm.ptn, cold.ptn), (trial, d)
                    assert warm.iterations == cold.iterations, (trial, d)


class TestKernelChoiceLaneMinor(TestKernelChoice):
    """The same cases with the lane threshold at 1, so every edge-list
    call — one-lane serial runs included — relaxes on the jagged kernel."""

    @pytest.fixture(autouse=True)
    def lane_minor(self, monkeypatch, request):
        seen = spy_jagged(monkeypatch, threshold=1)
        yield
        callspec = getattr(request.node, "callspec", None)
        dense = callspec is not None and callspec.params["kernel"] == "dense"
        assert bool(seen) != dense


class TestLaneMinor:
    """The jagged kernel at its real threshold, against the CSR list (the
    threshold raised past the lane count) and ``fused``, on every ledger."""

    @pytest.mark.parametrize("word_bits, dtype", [
        (24, np.int32),  # 24 + 1 + 6 == 31: the widest int32 key
        (25, np.int64),
    ])
    def test_key_width_edge(self, word_bits, dtype, monkeypatch):
        """A 64-lane APSP at n = 64 (6 column bits). Weights near the
        headroom limit and unreached MAXINT state fill the high bits."""
        n = 64
        maxint = (1 << word_bits) - 1
        rng = np.random.default_rng(word_bits)
        big = maxint // n
        W = rng.integers(big // 2, big, size=(n, n)).astype(np.int64)
        W[rng.random((n, n)) >= 0.08] = maxint
        W[5] = maxint  # vertex 5 reaches nothing: its lanes stay MAXINT
        np.fill_diagonal(W, 0)
        assert _kernel(W, word_bits) == "edge-list"

        def sweep(engine):
            return all_pairs_minimum_cost(
                PPAMachine(PPAConfig(n=n, word_bits=word_bits)), W,
                engine=engine,
            )

        seen = spy_jagged(monkeypatch)
        jagged = sweep("compiled")
        assert seen and set(seen) == {np.dtype(dtype)}
        monkeypatch.setattr(compiled, "LANE_MINOR_MIN_LANES", n + 1)
        runs = {"csr": sweep("compiled"), "fused": sweep("fused")}
        assert len(seen) == jagged.iterations.max()
        assert (jagged.dist == maxint).any()
        for name, ref in runs.items():
            assert np.array_equal(ref.dist, jagged.dist), name
            assert np.array_equal(ref.succ, jagged.succ), name
            assert np.array_equal(ref.iterations, jagged.iterations), name
            assert ref.counters == jagged.counters, name
            assert ref.machine_counters == jagged.machine_counters, name
            for ledger, plane in ref.lane_counters.items():
                assert np.array_equal(plane, jagged.lane_counters[ledger]), (
                    name, ledger)

    def test_n512_sweep_matches_csr(self, monkeypatch):
        """A 256-lane shard of an n = 512 APSP on a degree-16 graph, raw
        and prepared, equals the CSR list's sweep lane for lane."""
        n, lanes = 512, 256
        config = PPAConfig(n=n, word_bits=16)
        W = gnp_digraph(n, 16 / n, seed=1, inf_value=config.maxint)
        dests = np.arange(0, n, n // lanes)
        seen = spy_jagged(monkeypatch)
        prepared = PreparedPlane(W, PPAMachine(config))
        jagged = [
            batched_minimum_cost_path(PPAMachine(config, batch=lanes), plane,
                                      dests, engine="compiled")
            for plane in (W, prepared)
        ]
        assert seen and set(seen) == {np.dtype(np.int32)}
        monkeypatch.setattr(compiled, "LANE_MINOR_MIN_LANES", lanes + 1)
        csr = batched_minimum_cost_path(PPAMachine(config, batch=lanes), W,
                                        dests, engine="compiled")
        assert len(seen) == 2 * csr.iterations.max()
        for res in jagged:
            _assert_batched_equal(csr, res, "jagged vs csr")


class TestBatchedEquivalence:
    @given(batched_case())
    @settings(max_examples=40)
    def test_all_ledgers_lane_for_lane(self, case):
        n, B, word_bits, W, dest = case
        event("per-lane stack" if W.ndim == 3 else _kernel(W, word_bits))
        rf, rc = (
            batched_minimum_cost_path(
                PPAMachine(PPAConfig(n=n, word_bits=word_bits), batch=B),
                W, dest, engine=engine,
            )
            for engine in ("fused", "compiled")
        )
        _assert_batched_equal(rf, rc, "fused vs compiled")

    def test_compiled_lane_ledger_matches_serial_cycle_runs(self):
        rng = np.random.default_rng(11)
        n = 6
        maxint = (1 << 16) - 1
        W = rng.integers(1, 9, size=(n, n)).astype(np.int64)
        W[rng.random((n, n)) < 0.5] = maxint
        np.fill_diagonal(W, 0)
        res = batched_minimum_cost_path(
            PPAMachine(PPAConfig(n=n, word_bits=16), batch=n),
            W, np.arange(n), engine="compiled",
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

    def test_single_lane_batch_on_edge_list(self):
        """B = 1 — one coalesced service column — equals the serial run."""
        rng = np.random.default_rng(12)
        n = 16
        maxint = (1 << 16) - 1
        W = _sparse(n, rng, 0.15, maxint)
        assert _kernel(W, 16) == "edge-list"
        for d in (0, 7, 15):
            rf, rc = (
                batched_minimum_cost_path(
                    PPAMachine(PPAConfig(n=n, word_bits=16), batch=1),
                    W, [d], engine=engine,
                )
                for engine in ("fused", "compiled")
            )
            _assert_batched_equal(rf, rc, d)
            serial = minimum_cost_path(
                PPAMachine(PPAConfig(n=n, word_bits=16)), W, d,
                engine="compiled",
            )
            assert np.array_equal(rc.lane(0).sow, serial.sow)
            assert np.array_equal(rc.lane(0).ptn, serial.ptn)

    def test_per_lane_stack_runs_dense_tiles(self):
        """A ``(B, n, n)`` stack of sparse planes still takes the dense
        tiles (the edge list is a shared-plane kernel)."""
        rng = np.random.default_rng(13)
        n, B = 10, 4
        maxint = (1 << 16) - 1
        stack = np.stack([_sparse(n, rng, 0.15, maxint) for _ in range(B)])
        assert edge_list(stack, maxint) is None
        dest = rng.integers(0, n, size=B)
        rf, rc = (
            batched_minimum_cost_path(
                PPAMachine(PPAConfig(n=n, word_bits=16), batch=B),
                stack, dest, engine=engine,
            )
            for engine in ("fused", "compiled")
        )
        _assert_batched_equal(rf, rc, "stack")


class TestKernel:
    """The relaxation kernels themselves, independent of the MCP loop."""

    @given(st.integers(1, 6), st.integers(2, 12), st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_blocked_matches_whole_array(self, B, n, seed):
        rng = np.random.default_rng(seed)
        maxint = (1 << 12) - 1
        sow = rng.integers(0, maxint + 1, size=(B, n)).astype(np.int64)
        W = rng.integers(0, maxint + 1, size=(n, n)).astype(np.int64)
        ref = _relax(sow, W, maxint)
        got = _relax_numpy_blocked(sow, W, maxint)
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])

    @given(st.integers(1, 6), st.integers(2, 12), st.floats(0.0, 1.0),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=60)
    def test_edge_list_matches_whole_array(self, B, n, density, seed):
        """Any density (the threshold lifted), saturating sums, unreached
        MAXINT state and empty rows."""
        rng = np.random.default_rng(seed)
        maxint = (1 << 12) - 1
        sow = rng.integers(0, maxint + 1, size=(B, n)).astype(np.int64)
        sow[rng.random((B, n)) < 0.3] = maxint
        W = rng.integers(0, maxint, size=(n, n)).astype(np.int64)
        W[rng.random((n, n)) >= density] = maxint
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compiled, "EDGE_LIST_MAX_DENSITY", 2.0)
            edges = edge_list(W, maxint)
        ref = _relax(sow, W, maxint)
        got = edge_relax(sow, edges, maxint)
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])

    @given(st.integers(1, 2 * compiled.LANE_MINOR_MIN_LANES),
           st.integers(2, 12), st.sampled_from([12, 27, 28]),
           st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=60)
    def test_jagged_matches_whole_array(self, B, n, word_bits, density, seed):
        """Lanes on both sides of the threshold, both key widths (27 bits
        packs int32 keys up to n = 8), any density, saturating sums,
        unreached MAXINT state and empty rows; lane-minor and lanes-outer
        state alike, and ``(n,)`` state as one lane."""
        rng = np.random.default_rng(seed)
        maxint = (1 << word_bits) - 1
        sow = rng.integers(0, maxint + 1, size=(B, n)).astype(np.int64)
        sow[rng.random((B, n)) < 0.3] = maxint
        W = rng.integers(0, maxint, size=(n, n)).astype(np.int64)
        W[rng.random((n, n)) >= density] = maxint
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compiled, "EDGE_LIST_MAX_DENSITY", 2.0)
            edges = edge_list(W, maxint)
        layout = jagged_layout(edges, n, maxint)
        event(f"{layout.dtype} keys")
        ref = _relax(sow, W, maxint)
        for state in (np.asfortranarray(sow), sow):
            got = jagged_relax(state, layout, maxint)
            assert np.array_equal(ref[0], got[0])
            assert np.array_equal(ref[1], got[1])
        got = jagged_relax(sow[0], layout, maxint)
        assert np.array_equal(ref[0][0], got[0])
        assert np.array_equal(ref[1][0], got[1])

    def test_jagged_layout(self):
        """Rows ordered by entry count (ties by index); slot k holds the
        k-th entry of every row with more than k; empty rows point at
        the spare saturated row; key width from the configuration."""
        maxint = 255
        W = np.full((5, 5), maxint, dtype=np.int64)
        W[0, 3], W[0, 1], W[2, 2], W[2, 4], W[2, 0], W[4, 1] = 7, 5, 0, 1, 3, 2
        layout = jagged_layout(edge_list(W, maxint), 5, maxint)
        assert layout.rows == 3
        assert layout.position.tolist() == [1, 3, 0, 3, 2]
        assert [cols.tolist() for cols, _ in layout.slots] == [
            [0, 1, 1], [2, 3], [4]]
        assert [(keys[:, 0] >> 3).tolist() for _, keys in layout.slots] == [
            [3, 5, 2], [0, 7], [1]]
        assert layout.dtype == np.int32  # 8 + 1 + 3 bits; 28 + 1 + 3 below
        wide = (1 << 28) - 1
        W[W == maxint] = wide
        assert jagged_layout(edge_list(W, wide), 5, wide).dtype == np.int64
        empty = jagged_layout(edge_list(np.full((3, 3), maxint), maxint), 3,
                              maxint)
        assert empty.slots == () and empty.position.tolist() == [0, 0, 0]

    def test_lane_threshold_picks_the_kernel(self, monkeypatch):
        """An edge-list call runs the jagged kernel from
        LANE_MINOR_MIN_LANES lanes and the CSR list below; the layout is
        derived once per call."""
        calls = []

        def recording(name):
            inner = getattr(compiled, name)

            def wrapper(*args):
                calls.append(name)
                return inner(*args)

            return wrapper

        for name in ("edge_relax", "jagged_relax", "jagged_layout"):
            monkeypatch.setattr(compiled, name, recording(name))
        rng = np.random.default_rng(4)
        maxint = (1 << 16) - 1
        n, lanes = 16, compiled.LANE_MINOR_MIN_LANES
        W = _sparse(n, rng, 0.2, maxint)
        for B, expected in (
            (lanes - 1, ["edge_relax"] * 2),
            (lanes, ["jagged_layout"] + ["jagged_relax"] * 2),
        ):
            relax = relax_kernel()
            sow = np.asfortranarray(
                rng.integers(0, 50, size=(B, n)).astype(np.int64))
            for _ in range(2):
                got = relax(sow, W, maxint)
                ref = _relax(sow, W, maxint)
                assert np.array_equal(ref[0], got[0])
                assert np.array_equal(ref[1], got[1])
            assert calls == expected
            calls.clear()

    def test_lane_chunks_are_bit_identical(self, monkeypatch):
        """A tiny byte budget splits lanes into many chunks on both
        kernels, per-lane stacks included."""
        monkeypatch.setattr(compiled, "_BLOCK_TARGET_BYTES", 2048)
        monkeypatch.setattr(compiled, "EDGE_LIST_MAX_DENSITY", 2.0)
        rng = np.random.default_rng(3)
        maxint = (1 << 12) - 1
        B, n = 11, 10
        sow = rng.integers(0, maxint + 1, size=(B, n)).astype(np.int64)
        stack = rng.integers(0, 60, size=(B, n, n)).astype(np.int64)
        stack[rng.random((B, n, n)) < 0.6] = maxint
        assert lane_block(B, n) < B
        for W in (stack, stack[0]):
            ref = _relax(sow, W, maxint)
            got = blocked_relax(sow, W, maxint)
            assert np.array_equal(ref[0], got[0]), W.ndim
            assert np.array_equal(ref[1], got[1]), W.ndim
        edges = edge_list(stack[0], maxint)
        assert 1 < 2048 // (8 * edges.cols.size) < B
        got = edge_relax(sow, edges, maxint)
        ref = _relax(sow, stack[0], maxint)
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])

    def test_serial_shape_round_trip(self):
        rng = np.random.default_rng(1)
        maxint = (1 << 16) - 1
        sow = rng.integers(0, 50, size=7).astype(np.int64)
        W = rng.integers(0, 50, size=(7, 7)).astype(np.int64)
        W[rng.random((7, 7)) < 0.8] = maxint
        ref = _relax(sow, W, maxint)
        for got in (blocked_relax(sow, W, maxint),
                    edge_relax(sow, edge_list(W, maxint), maxint)):
            assert got[0].shape == (7,) and got[1].shape == (7,)
            assert np.array_equal(ref[0], got[0])
            assert np.array_equal(ref[1], got[1])

    def test_per_lane_weights(self):
        rng = np.random.default_rng(2)
        maxint = (1 << 16) - 1
        sow = rng.integers(0, 50, size=(3, 5)).astype(np.int64)
        W = rng.integers(0, 50, size=(3, 5, 5)).astype(np.int64)
        ref = _relax(sow, W, maxint)
        got = blocked_relax(sow, W, maxint)
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])

    def test_saturation_before_argmin(self):
        """Clipping must happen before the argmin: two candidates that
        both saturate to MAXINT tie, and the smaller index must win —
        on the dense tiles and on the edge list alike."""
        maxint = 100
        sow = np.array([[90, 95, 0]], dtype=np.int64)
        W = np.array([[50, 60, maxint]] * 3, dtype=np.int64)
        best, arg = blocked_relax(sow, W, maxint)
        assert best[0, 0] == maxint
        assert arg[0, 0] == 0  # 140 and 155 both clip to 100; index 0 wins
        W_late = np.array([[maxint, 60, 50]] * 3, dtype=np.int64)
        sow_late = np.array([[0, 95, 90]], dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compiled, "EDGE_LIST_MAX_DENSITY", 2.0)
            edges = edge_list(W_late, maxint)
        best, arg = edge_relax(sow_late, edges, maxint)
        assert best[0, 0] == maxint
        assert arg[0, 0] == 0  # not an entry of the list, yet the answer

    def test_edge_list_layout(self):
        """Row segments skip empty rows (trailing ones included); the
        density rule counts the diagonal and is strict."""
        maxint = 255
        W = np.full((5, 5), maxint, dtype=np.int64)
        W[0, 3], W[0, 1], W[2, 2], W[2, 4] = 7, 5, 0, 1
        edges = edge_list(W, maxint)
        assert edges.shift == 3
        assert edges.rows.tolist() == [0, 2]
        assert edges.starts.tolist() == [0, 2]
        assert edges.cols.tolist() == [1, 3, 2, 4]
        assert (edges.keys >> 3).tolist() == [5, 7, 0, 1]
        n = 10
        at = math.ceil(EDGE_LIST_MAX_DENSITY * n * n)
        W = np.full((n, n), maxint, dtype=np.int64)
        W.flat[:at] = 1
        assert edge_list(W, maxint) is None
        W.flat[at - 1] = maxint
        assert edge_list(W, maxint) is not None

    def test_row_block_sizing(self):
        assert row_block(1, 16) == 16  # capped at n
        assert row_block(1, 1024) == 128  # 1 MiB / (1024 * 8)
        assert row_block(64, 4096) >= 16  # floored
        # the floor no longer inflates a tile: lanes split instead
        for batch, n in ((256, 512), (64, 4096), (1000, 64)):
            tile = lane_block(batch, n) * row_block(batch, n) * n * 8
            assert tile <= 1 << 20 or lane_block(batch, n) == 1
        assert lane_block(256, 512) == 16  # 16 lanes x 16 rows x 512
        assert lane_block(1, 1024) == 1

    def test_kernel_info_reports_backend(self):
        info = compiled_kernel_info()
        assert info["backend"] == "numpy"
        assert info["edge_list_max_density"] == EDGE_LIST_MAX_DENSITY
        assert info["lane_minor_min_lanes"] == LANE_MINOR_MIN_LANES == 64
        assert info["narrow_key_max_bits"] == 31
        assert info["block_target_bytes"] == 1 << 20
