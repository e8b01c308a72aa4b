"""Prepared planes: one normalised, read-only plane and edge list per graph.

A :class:`~repro.engine.compiled.PreparedPlane` lets a caller that solves
one plane many times normalise it and build its edge list once. Handed to
any engine in place of the raw array, it must change nothing: SOW, PTN,
iteration counts, the scalar counter book and every lane ledger stay bit
for bit those of the raw-array call, on both compiled kernels and on
either side of the packed key's 63-bit limit. The analytic loop replays
its counters once per call, so a run that fails to converge must still
charge exactly the rounds it ran, on the jagged kernel too.
"""

import numpy as np
import pytest

import repro.engine.compiled as compiled
from repro.core import minimum_cost_path
from repro.core.batched import batched_minimum_cost_path
from repro.core.graph import normalize_weights
from repro.engine import edge_list
from repro.engine.compiled import PreparedPlane
from repro.errors import GraphError, MaskError
from repro.ppa import PPAConfig, PPAMachine

from tests.engine.test_compiled import spy_jagged


def _machine(n, word_bits, batch=None):
    return PPAMachine(PPAConfig(n=n, word_bits=word_bits), batch=batch)


def _sparse(n, density, word_bits, seed):
    """A ``(n, n)`` grid with zero-weight edges, a zero diagonal and
    ``density`` of its entries finite."""
    maxint = (1 << word_bits) - 1
    rng = np.random.default_rng(seed)
    W = rng.integers(0, 9, size=(n, n)).astype(np.int64)
    W[rng.random((n, n)) >= density] = maxint
    np.fill_diagonal(W, 0)
    return W


def _assert_same(ref, res):
    assert np.array_equal(ref.sow, res.sow)
    assert np.array_equal(ref.ptn, res.ptn)
    assert np.array_equal(ref.iterations, res.iterations)
    assert ref.counters == res.counters
    lanes = getattr(ref, "lane_counters", None)
    if lanes is not None:
        assert set(lanes) == set(res.lane_counters)
        for name in lanes:
            assert np.array_equal(lanes[name], res.lane_counters[name]), name


CASES = {
    # n, word_bits, density, kernel the plane gets
    "edge-list": (48, 16, 0.12, "edge-list"),
    "dense": (24, 16, 0.6, "dense"),
}


class TestPreparedEqualsRaw:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("engine", ["compiled", "fused", "cycle"])
    def test_batched_all_ledgers(self, case, engine):
        n, word_bits, density, kernel = CASES[case]
        W = _sparse(n, density, word_bits, seed=n)
        prepared = PreparedPlane(W, _machine(n, word_bits))
        assert (prepared.edges is None) == (kernel == "dense")
        dests = [0, 3, n - 1, 3]
        raw = batched_minimum_cost_path(
            _machine(n, word_bits), W, dests, engine=engine)
        res = batched_minimum_cost_path(
            _machine(n, word_bits), prepared, dests, engine=engine)
        _assert_same(raw, res)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("engine", ["compiled", "fused"])
    def test_serial(self, case, engine):
        n, word_bits, density, _ = CASES[case]
        W = _sparse(n, density, word_bits, seed=n + 1)
        prepared = PreparedPlane(W, _machine(n, word_bits))
        for d in (0, n // 2):
            raw = minimum_cost_path(_machine(n, word_bits), W, d,
                                    engine=engine)
            res = minimum_cost_path(_machine(n, word_bits), prepared, d,
                                    engine=engine)
            _assert_same(raw, res)

    @pytest.mark.parametrize("word_bits, kernel", [
        (60, "edge-list"),  # 60 + 1 + 2 == 63: the widest packed key
        (61, "dense"),
    ])
    def test_packed_key_word_limit(self, word_bits, kernel, monkeypatch):
        monkeypatch.setattr(compiled, "EDGE_LIST_MAX_DENSITY", 2.0)
        n = 4
        maxint = (1 << word_bits) - 1
        rng = np.random.default_rng(word_bits)
        big = maxint // n
        W = rng.integers(big // 2, big, size=(n, n)).astype(np.int64)
        W[0, 2] = W[3, 1] = W[2, 0] = maxint
        np.fill_diagonal(W, 0)
        prepared = PreparedPlane(W, _machine(n, word_bits))
        assert (prepared.edges is None) == (kernel == "dense")
        dests = np.arange(n)
        for engine in ("compiled", "cycle"):
            raw = batched_minimum_cost_path(
                _machine(n, word_bits), W, dests, engine=engine)
            res = batched_minimum_cost_path(
                _machine(n, word_bits), prepared, dests, engine=engine)
            _assert_same(raw, res)


class TestPreparedPlaneType:
    def test_plane_and_list_are_read_only(self):
        W = _sparse(32, 0.1, 16, seed=2)
        prepared = PreparedPlane(W, _machine(32, 16))
        edges = prepared.edges
        assert edges is not None
        for array in (prepared.W, edges.cols, edges.keys, edges.starts):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
        with pytest.raises(AttributeError):
            prepared.edges = None
        with pytest.raises(AttributeError):
            prepared.W = W

    def test_normalised_copy_matches_a_fresh_build(self):
        W = _sparse(32, 0.1, 16, seed=3).astype(np.float64)
        W[W >= (1 << 16) - 1] = np.inf
        W[4, 4] = 7  # "set" zeroes the diagonal
        machine = _machine(32, 16)
        prepared = PreparedPlane(W, machine, zero_diagonal="set")
        plane = normalize_weights(W, machine, zero_diagonal="set")
        assert np.array_equal(prepared.W, plane)
        fresh = edge_list(plane, machine.maxint)
        assert prepared.edges.shift == fresh.shift
        for got, want in zip(prepared.edges[1:], fresh[1:]):
            assert (got is None and want is None) or np.array_equal(got,
                                                                    want)
        # the caller's array is neither aliased nor frozen
        assert W.flags.writeable

    def test_validation_happens_at_construction(self):
        W = _sparse(8, 0.5, 16, seed=4)
        W[1, 1] = 3
        with pytest.raises(GraphError):
            PreparedPlane(W, _machine(8, 16))

    def test_geometry_must_match_the_machine(self):
        W = _sparse(8, 0.5, 16, seed=4)
        prepared = PreparedPlane(W, _machine(8, 16))
        with pytest.raises(MaskError):
            batched_minimum_cost_path(_machine(9, 16), prepared, [0])
        with pytest.raises(GraphError, match="MAXINT"):
            batched_minimum_cost_path(_machine(8, 20), prepared, [0])


class TestReplayOnFailure:
    """Counters are replayed once per call, in a ``finally``: a run that
    fails to converge charges the rounds it ran, like the cycle engine."""

    def _chain(self, n=6):
        maxint = (1 << 16) - 1
        W = np.full((n, n), maxint, dtype=np.int64)
        np.fill_diagonal(W, 0)
        for v in range(1, n):
            W[v, v - 1] = 1
        return W

    def test_serial(self):
        W = self._chain()
        books = {}
        for engine in ("cycle", "compiled"):
            machine = _machine(6, 16)
            with pytest.raises(GraphError, match="did not converge"):
                minimum_cost_path(machine, W, 0, max_iterations=2,
                                  engine=engine)
            books[engine] = machine.counters.snapshot()
        assert books["compiled"] == books["cycle"]

    def test_batched(self):
        W = self._chain()
        books = {}
        for engine in ("cycle", "compiled"):
            machine = _machine(6, 16, batch=3)
            with pytest.raises(GraphError, match="did not converge"):
                batched_minimum_cost_path(machine, W, [0, 4, 5],
                                          max_iterations=2, engine=engine)
            books[engine] = (machine.counters.snapshot(),
                             machine.lane_counters.snapshot())
        assert books["compiled"][0] == books["cycle"][0]
        for name, lanes in books["cycle"][1].items():
            assert np.array_equal(books["compiled"][1][name], lanes), name


class TestReplayOnFailureLaneMinor(TestReplayOnFailure):
    """The same failures with the lane threshold at 1, so the compiled
    runs relax on the jagged kernel."""

    @pytest.fixture(autouse=True)
    def lane_minor(self, monkeypatch):
        seen = spy_jagged(monkeypatch, threshold=1)
        yield
        assert seen
