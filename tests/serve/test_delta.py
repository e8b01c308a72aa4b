"""Delta invalidation soundness: a kept column is never stale.

The service's incremental `put_graph` stacks its cached columns into one
plane and keeps the columns that `dirty_destinations` clears. The claim
this file pins (oracle-checked): every kept column still satisfies the
full Bellman-fixpoint oracle under the NEW weights — so serving it at
the bumped version can never be silent-wrong. The dirty test is
conservative (may recompute a column that did not change) but never
unsound, including multi-edge deltas, and a column's verdict does not
depend on which other columns share its plane.
"""

import asyncio

import numpy as np
import pytest

from repro.core.mcp import minimum_cost_path
from repro.errors import GraphError
from repro.ppa import PPAConfig, PPAMachine
from repro.serve import service as service_mod
from repro.serve.delta import (
    apply_edge_delta,
    decode_edges,
    dirty_destinations,
)
from repro.serve.oracle import bellman_reference, verify_mcp
from repro.serve.service import PathQueryService, ServiceConfig

MAXINT = (1 << 16) - 1


def random_grid(n, rng, density=0.4):
    W = np.full((n, n), MAXINT, dtype=np.int64)
    mask = rng.random((n, n)) < density
    W[mask] = rng.integers(1, 10, size=int(mask.sum()))
    np.fill_diagonal(W, 0)
    return W


def solve(W, d):
    """Reference (sow, ptn) pair that passes the oracle."""
    n = W.shape[0]
    sow = bellman_reference(W, d, MAXINT)
    ptn = np.full(n, d, dtype=np.int64)
    for v in range(n):
        if v == d or sow[v] >= MAXINT:
            continue
        for u in range(n):
            if u != v and W[v, u] < MAXINT \
                    and sow[v] == W[v, u] + sow[u]:
                ptn[v] = u
                break
    return sow, ptn


def column_dirty(edges, sow, ptn) -> bool:
    """The dirty verdict for one column, as a one-column plane."""
    mask = dirty_destinations(edges, sow[:, None], ptn[:, None], MAXINT)
    assert mask.shape == (1,)
    return bool(mask[0])


def wire_of(W):
    return [[None if int(c) >= MAXINT else int(c) for c in row] for row in W]


class TestDecodeEdges:
    def test_valid_triples_decode(self):
        edges = decode_edges([[0, 1, 5], [2, 3, None]], 4, MAXINT)
        assert edges == [(0, 1, 5), (2, 3, MAXINT)]

    @pytest.mark.parametrize("bad", [
        [],                      # empty
        "nope",                  # not a list
        [[0, 1]],                # wrong arity
        [[0, 0, 3]],             # diagonal
        [[0, 9, 3]],             # out of range
        [[0, 1, -1]],            # negative weight
        [[0, 1, MAXINT + 1]],    # beyond the sentinel
        [[0, 1, "x"]],           # non-int weight
        [["a", 1, 2]],           # non-int endpoint
    ])
    def test_bad_wire_forms_rejected(self, bad):
        with pytest.raises(GraphError):
            decode_edges(bad, 4, MAXINT)

    def test_later_entries_win(self):
        W = np.zeros((3, 3), dtype=np.int64)
        edges = decode_edges([[0, 1, 5], [0, 1, 7]], 3, MAXINT)
        assert apply_edge_delta(W, edges, MAXINT)[0, 1] == 7


class TestDirtySoundness:
    def test_kept_columns_pass_the_oracle_under_new_weights(self):
        """The headline property: clean verdict => oracle-clean at W_new,
        with the same verdict from a one-column plane, the full plane and
        any subset of columns stacked together."""
        rng = np.random.default_rng(3)
        kept = dirtied = 0
        for trial in range(60):
            n = int(rng.integers(4, 12))
            W = random_grid(n, rng)
            k = int(rng.integers(1, 5))  # multi-edge deltas included
            edges = []
            for _ in range(k):
                u = int(rng.integers(0, n))
                v = int(rng.integers(0, n - 1))
                v += v >= u
                w = MAXINT if rng.random() < 0.3 \
                    else int(rng.integers(1, 10))
                edges.append((u, v, w))
            W_new = apply_edge_delta(W, edges, MAXINT)
            cols = [solve(W, d) for d in range(n)]
            dist = np.stack([c[0] for c in cols], axis=1)
            succ = np.stack([c[1] for c in cols], axis=1)
            plane = dirty_destinations(edges, dist, succ, MAXINT)
            subset = np.flatnonzero(rng.random(n) < 0.5)
            assert dirty_destinations(
                edges, dist[:, subset], succ[:, subset], MAXINT
            ).tolist() == plane[subset].tolist()
            for d, (sow, ptn) in enumerate(cols):
                assert column_dirty(edges, sow, ptn) == plane[d]
                if plane[d]:
                    dirtied += 1
                    continue
                kept += 1
                assert not verify_mcp(W_new, sow, ptn, d, MAXINT), \
                    f"kept a stale column (trial {trial}, dest {d})"
        assert kept > 50, "dirty test too conservative to be useful"
        assert dirtied > 50, "delta stream never dirtied anything"

    def test_cost_improvement_dirties_affected_column(self):
        # 0 -> 1 -> 2 costs 10; a 0->2 shortcut of 3 must dirty dest 2
        W = np.full((3, 3), MAXINT, dtype=np.int64)
        np.fill_diagonal(W, 0)
        W[0, 1] = 5
        W[1, 2] = 5
        sow, ptn = solve(W, 2)
        assert column_dirty([(0, 2, 3)], sow, ptn)

    def test_removing_tree_edge_dirties_column(self):
        W = np.full((3, 3), MAXINT, dtype=np.int64)
        np.fill_diagonal(W, 0)
        W[0, 1] = 5
        W[1, 2] = 5
        sow, ptn = solve(W, 2)
        assert column_dirty([(1, 2, MAXINT)], sow, ptn)

    def test_irrelevant_edge_keeps_column(self):
        W = np.full((4, 4), MAXINT, dtype=np.int64)
        np.fill_diagonal(W, 0)
        W[0, 1] = 2
        W[1, 2] = 2
        W[1, 0] = 20  # expensive detour, not on the tree
        # improving the detour without making it competitive (9 + 4 > 2)
        # cannot affect any answer for dest 2
        sow, ptn = solve(W, 2)
        assert not column_dirty([(1, 0, 9)], sow, ptn)


class TestServiceDelta:
    def run(self, coro):
        return asyncio.run(coro)

    @pytest.mark.parametrize("coalesce", [True, False],
                             ids=["coalesced", "uncoalesced"])
    def test_delta_updates_never_serve_stale_answers(self, coalesce,
                                                     monkeypatch):
        """Every answer is current, and every column the engine solves
        — the first fill and each re-solve of a column a delta dirtied,
        coalesced or not — returns exactly the cold answer, PTN and
        iteration count included."""
        solved: list[int] = []
        engine = service_mod.batched_minimum_cost_path

        def recording(machine, W, dests, **kwargs):
            solved.extend(int(d) for d in dests)
            return engine(machine, W, dests, **kwargs)

        monkeypatch.setattr(service_mod, "batched_minimum_cost_path",
                            recording)

        async def main():
            rng = np.random.default_rng(29)
            n = 10
            W = random_grid(n, rng)
            service = PathQueryService(ServiceConfig(workers=1, seed=1,
                                                     coalesce=coalesce))
            re_solves = 0
            try:
                resp = await service.handle_request({
                    "id": 0, "op": "put_graph", "graph": "g",
                    "weights": wire_of(W), "word_bits": 16,
                })
                assert resp.status == "ok"
                grid = W.copy()
                version = 1
                for round_ in range(6):
                    # query every destination (fills + migrates caches)
                    for d in range(n):
                        r = await service.handle_request({
                            "id": f"{round_}-{d}", "op": "dest",
                            "graph": "g", "dest": d,
                        })
                        assert r.status == "ok"
                        assert r.result["version"] == version
                        want = bellman_reference(grid, d, MAXINT)
                        assert r.result["sow"] == [int(x) for x in want]
                        if solved:
                            assert solved == [d]
                            cold = minimum_cost_path(
                                PPAMachine(PPAConfig(n=n, word_bits=16)),
                                grid, d)
                            assert r.result["ptn"] == cold.ptn.tolist()
                            assert r.result["iterations"] == cold.iterations
                            re_solves += round_ > 0
                            solved.clear()
                    u = int(rng.integers(0, n))
                    v = int(rng.integers(0, n - 1))
                    v += v >= u
                    w = None if rng.random() < 0.3 \
                        else int(rng.integers(1, 10))
                    r = await service.handle_request({
                        "id": f"u{round_}", "op": "put_graph",
                        "graph": "g", "edges": [[u, v, w]],
                        "base_version": version,
                    })
                    assert r.status == "ok", r.error
                    grid[u, v] = MAXINT if w is None else w
                    version += 1
                    assert r.result["version"] == version
            finally:
                await service.stop()
            assert re_solves > 0, "no delta ever dirtied a cached column"
        self.run(main())

    def test_delta_without_cached_columns(self):
        async def main():
            W = random_grid(8, np.random.default_rng(5))
            service = PathQueryService(ServiceConfig(workers=1))
            try:
                await service.handle_request({
                    "id": 0, "op": "put_graph", "graph": "g",
                    "weights": wire_of(W), "word_bits": 16,
                })
                r = await service.handle_request({
                    "id": 1, "op": "put_graph", "graph": "g",
                    "edges": [[0, 1, 1]],
                })
                assert r.status == "ok", r.error
                assert r.result["delta"] == {
                    "edges": 1, "columns_kept": 0, "columns_dirtied": 0,
                    "apsp_dirty": None,
                }
                r = await service.handle_request({
                    "id": 2, "op": "dest", "graph": "g", "dest": 3,
                })
                grid = apply_edge_delta(W, [(0, 1, 1)], MAXINT)
                want = bellman_reference(grid, 3, MAXINT)
                assert r.result["sow"] == [int(x) for x in want]
            finally:
                await service.stop()
        self.run(main())

    def test_delta_counts_cached_columns_beside_an_apsp_plane(self):
        """``columns_kept`` / ``columns_dirtied`` split the graph's
        cached columns (the chaos digest includes them); ``apsp_dirty``
        counts the APSP plane's own dirtied lanes."""
        async def main():
            n = 9
            W = random_grid(n, np.random.default_rng(41))
            service = PathQueryService(ServiceConfig(workers=1))

            async def ask(op, **fields):
                r = await service.handle_request(
                    {"id": op, "op": op, "graph": "g", **fields})
                assert r.status == "ok", r.error
                return r

            async def cached_plane(dests):
                cols = [(await ask("dest", dest=d)).result for d in dests]
                return (np.stack([c["sow"] for c in cols], axis=1),
                        np.stack([c["ptn"] for c in cols], axis=1))

            try:
                await ask("put_graph", weights=wire_of(W), word_bits=16)
                # three cached columns, no plane
                sow, ptn = await cached_plane([1, 4, 7])
                edges = [(0, 1, 1), (6, 7, MAXINT)]
                want = dirty_destinations(edges, sow, ptn, MAXINT)
                r = await ask("put_graph",
                              edges=[list(e) for e in edges])
                assert r.result["delta"]["columns_kept"] == \
                    int((~want).sum())
                assert r.result["delta"]["columns_dirtied"] == \
                    int(want.sum())
                assert r.result["delta"]["apsp_dirty"] is None
                grid = apply_edge_delta(W, edges, MAXINT)

                # a verified plane also caches every column
                await ask("apsp")
                sow, ptn = await cached_plane(range(n))
                edges = [(2, 3, MAXINT), (5, 0, 1)]
                want = dirty_destinations(edges, sow, ptn, MAXINT)
                assert 0 < want.sum() < n
                r = await ask("put_graph",
                              edges=[list(e) for e in edges])
                assert r.result["delta"] == {
                    "edges": 2, "columns_kept": int((~want).sum()),
                    "columns_dirtied": int(want.sum()),
                    "apsp_dirty": int(want.sum()),
                }
                grid = apply_edge_delta(grid, edges, MAXINT)
                for d in range(n):
                    r = await ask("dest", dest=d)
                    assert r.result["version"] == 3
                    assert bool(r.timing.get("cached")) == (not want[d])
                    expect = bellman_reference(grid, d, MAXINT)
                    assert r.result["sow"] == [int(x) for x in expect]
                r = await ask("apsp")
                assert r.result["incremental"] == int(want.sum())
            finally:
                await service.stop()
        self.run(main())

    def test_version_conflict_rejected(self):
        async def main():
            service = PathQueryService(ServiceConfig(workers=1))
            try:
                wire = [[0, 1, None], [None, 0, 1], [1, None, 0]]
                await service.handle_request({
                    "id": 0, "op": "put_graph", "graph": "g",
                    "weights": wire, "word_bits": 16,
                })
                r = await service.handle_request({
                    "id": 1, "op": "put_graph", "graph": "g",
                    "edges": [[0, 2, 4]], "base_version": 7,
                })
                assert r.status == "error"
                assert "version conflict" in r.error
            finally:
                await service.stop()
        self.run(main())

    def test_delta_without_word_headroom_rejected(self):
        """A delta is held to put_graph's headroom rule: an (n-1)-edge
        path of its heaviest finite weight must stay below MAXINT. A
        refused delta leaves the version and the answers as they were."""
        async def main():
            service = PathQueryService(ServiceConfig(workers=1))
            try:
                wire = [[0, 1, None, None], [None, 0, 1, None],
                        [None, None, 0, 1], [None, None, None, 0]]
                put = await service.handle_request({
                    "id": 0, "op": "put_graph", "graph": "g",
                    "weights": wire, "word_bits": 16,
                })
                assert put.result["version"] == 1
                r = await service.handle_request({
                    "id": 1, "op": "put_graph", "graph": "g",
                    "edges": [[0, 1, 40000], [1, 2, 40000]],
                })
                assert r.status == "error"
                assert "would reach MAXINT" in r.error
                stats = service.stats()
                assert stats["graphs"]["g"]["version"] == 1
                q = await service.handle_request({
                    "id": 2, "op": "point", "graph": "g",
                    "source": 0, "dest": 3,
                })
                assert q.status == "ok", q.error
                assert q.result["version"] == 1
                assert q.result["cost"] == 3
                assert not service.stats()["ladder"]["levels"]
                # removals and weights that keep the headroom still apply
                ok = await service.handle_request({
                    "id": 3, "op": "put_graph", "graph": "g",
                    "edges": [[0, 1, None], [0, 2, 21844]],
                })
                assert ok.status == "ok", ok.error
                assert ok.result["version"] == 2
            finally:
                await service.stop()
        self.run(main())

    def test_weights_and_edges_together_rejected(self):
        async def main():
            service = PathQueryService(ServiceConfig(workers=1))
            try:
                wire = [[0, 1], [1, 0]]
                await service.handle_request({
                    "id": 0, "op": "put_graph", "graph": "g",
                    "weights": wire, "word_bits": 16,
                })
                r = await service.handle_request({
                    "id": 1, "op": "put_graph", "graph": "g",
                    "weights": wire, "edges": [[0, 1, 2]],
                })
                assert r.status == "error"
            finally:
                await service.stop()
        self.run(main())

    def test_incremental_apsp_matches_cold_digest(self):
        async def main():
            rng = np.random.default_rng(41)
            n = 9
            W = random_grid(n, rng)
            wire = wire_of(W)
            service = PathQueryService(ServiceConfig(workers=1, seed=2))
            cold_svc = PathQueryService(ServiceConfig(workers=1, seed=2))
            try:
                for s in (service, cold_svc):
                    r = await s.handle_request({
                        "id": 0, "op": "put_graph", "graph": "g",
                        "weights": wire, "word_bits": 16,
                    })
                    assert r.status == "ok"
                r = await service.handle_request(
                    {"id": 1, "op": "apsp", "graph": "g"})
                assert r.status == "ok"
                r = await service.handle_request({
                    "id": 2, "op": "put_graph", "graph": "g",
                    "edges": [[0, 1, 1], [2, 3, None]],
                })
                assert r.status == "ok", r.error
                spliced = await service.handle_request(
                    {"id": 3, "op": "apsp", "graph": "g"})
                assert spliced.status == "ok"
                # cold service registers the post-delta grid directly
                W_new = apply_edge_delta(
                    W, [(0, 1, 1), (2, 3, MAXINT)], MAXINT)
                wire_new = wire_of(W_new)
                r = await cold_svc.handle_request({
                    "id": 4, "op": "put_graph", "graph": "g",
                    "weights": wire_new, "word_bits": 16,
                })
                assert r.status == "ok"
                cold = await cold_svc.handle_request(
                    {"id": 5, "op": "apsp", "graph": "g"})
                assert cold.status == "ok"
                assert spliced.result["digest"] == cold.result["digest"]
                assert spliced.result["incremental"] == 3
            finally:
                await service.stop()
                await cold_svc.stop()
        self.run(main())
