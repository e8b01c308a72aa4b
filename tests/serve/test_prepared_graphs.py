"""One prepared graph version: built once, read-only, checked independently.

``put_graph`` and every delta build the version's normalised plane, the
compiled tier's edge list and the oracle's own CSR once; compute threads
share them read-only. The oracle never trusts the engine's list: an
answer computed over a corrupted list is rejected and a lower rung
answers. And a batch that finishes after its graph version was retired
still answers its waiters, but leaves nothing in the caches.
"""

import asyncio
import dataclasses
import threading

import numpy as np
import pytest

from repro.engine import edge_list
from repro.engine.compiled import PreparedPlane
from repro.resilience import BackoffPolicy
from repro.serve import PathQueryService, ServiceConfig
from repro.serve.oracle import bellman_reference, oracle_csr
from repro.serve.service import default_machine_factory

MAXINT = (1 << 16) - 1


def run(coro):
    return asyncio.run(coro)


def fast_config(**overrides) -> ServiceConfig:
    base = dict(
        workers=1,
        backoff=BackoffPolicy(base=0.001, cap=0.01, max_attempts=8),
        recovery_successes=2,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def sparse_grid(n=24, seed=3, density=0.12):
    """A grid sparse enough for the compiled tier's edge list."""
    rng = np.random.default_rng(seed)
    W = rng.integers(1, 9, size=(n, n)).astype(np.int64)
    W[rng.random((n, n)) >= density] = MAXINT
    for v in range(n):  # a ring keeps every vertex reachable
        W[v, (v + 1) % n] = 5
    np.fill_diagonal(W, 0)
    return W


def wire_of(W):
    return [[None if v >= MAXINT else int(v) for v in row] for row in W]


async def put(service, W, name="g"):
    resp = await service.handle_request({
        "id": "put", "op": "put_graph", "graph": name,
        "weights": wire_of(W), "word_bits": 16,
    })
    assert resp.status == "ok", resp.error
    return resp


def _assert_edge_lists_equal(got, want):
    assert got is not None and want is not None
    assert got.shift == want.shift
    for a, b in zip(got[1:], want[1:]):
        assert (a is None and b is None) or np.array_equal(a, b)


class TestVersionPreparation:
    def test_stored_version_is_read_only(self):
        async def main():
            service = PathQueryService(fast_config())
            try:
                await put(service, sparse_grid())
                g = service.graphs["g"]
                assert g.plane.edges is not None
                arrays = [g.W, *(a for a in g.plane.edges[1:]
                                 if a is not None), *g.csr]
                for array in arrays:
                    with pytest.raises(ValueError):
                        array[0] = 0
                with pytest.raises(dataclasses.FrozenInstanceError):
                    g.version = 9
            finally:
                await service.stop()

        run(main())

    def test_delta_builds_a_new_plane_and_lists(self):
        async def main():
            service = PathQueryService(fast_config())
            try:
                W = sparse_grid()
                await put(service, W)
                old = service.graphs["g"]
                resp = await service.handle_request({
                    "id": 1, "op": "put_graph", "graph": "g",
                    "edges": [[0, 5, 1], [3, 4, None]],
                })
                assert resp.status == "ok", resp.error
                new = service.graphs["g"]
                W[0, 5], W[3, 4] = 1, MAXINT
                assert new.version == old.version + 1
                assert new.plane is not old.plane
                assert np.array_equal(new.W, W)
                assert not np.array_equal(old.W, W)  # the old one stands
                _assert_edge_lists_equal(new.plane.edges,
                                         edge_list(W.copy(), MAXINT))
                for got, want in zip(new.csr, oracle_csr(W, MAXINT)):
                    assert np.array_equal(got, want)
                assert not new.W.flags.writeable
            finally:
                await service.stop()

        run(main())


class TestOracleIndependence:
    """A corrupted engine edge list yields wrong answers on the compiled
    rungs; the oracle, which checks against the dense plane through its
    own CSR, rejects every one, and the dense fused rung answers."""

    @pytest.mark.parametrize("mutation", ["changed", "dropped"])
    @pytest.mark.parametrize("coalesce", [True, False],
                             ids=["coalesced", "uncoalesced"])
    def test_corrupted_edge_list_is_caught(self, mutation, coalesce):
        W = sparse_grid()
        n = W.shape[0]
        d = 0
        truth = bellman_reference(W, d, MAXINT)
        forged = W.copy()
        if mutation == "changed":
            # a free edge towards the destination: the engine's costs
            # drop below anything achievable
            u, v = next((u, v) for u in range(n) for v in range(n)
                        if u != v and u != d and W[u, v] < MAXINT
                        and truth[v] < truth[u])
            forged[u, v] = 0
        else:
            # drop the only cheapest way out of some vertex
            u, v = next(
                (u, v) for u in range(n) if u != d
                for v in range(n)
                if u != v and W[u, v] < MAXINT
                and W[u, v] + truth[v] == truth[u]
                and sum(1 for x in range(n) if x != u and W[u, x] < MAXINT
                        and W[u, x] + truth[x] == truth[u]) == 1
            )
            forged[u, v] = MAXINT

        async def main():
            service = PathQueryService(fast_config(coalesce=coalesce))
            try:
                await put(service, W)
                g = service.graphs["g"]
                plane = PreparedPlane(g.W, default_machine_factory(n, 16))
                object.__setattr__(plane, "edges", edge_list(forged, MAXINT))
                service.graphs["g"] = dataclasses.replace(g, plane=plane)
                resp = await service.handle_request({
                    "id": 1, "op": "dest", "graph": "g", "dest": d,
                })
                assert resp.status == "ok", resp.error
                assert resp.result["sow"] == [int(x) for x in truth]
                assert resp.degraded is not None
                assert service.counters["verify_rejections"] >= 1
                assert resp.result["engine"] == "fused"
            finally:
                await service.stop()

        run(main())


class _HeldFactory:
    """A machine factory that blocks its compute thread until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, n, word_bits):
        self.entered.set()
        assert self.release.wait(10.0)
        return default_machine_factory(n, word_bits)


class TestRetiredVersion:
    """A batch whose graph version was retired while it computed answers
    its waiters at that version, but caches nothing no lookup can reach."""

    @pytest.mark.parametrize("coalesce", [True, False],
                             ids=["coalesced", "uncoalesced"])
    def test_answer_is_served_not_cached(self, coalesce):
        async def main():
            factory = _HeldFactory()
            service = PathQueryService(fast_config(coalesce=coalesce),
                                       machine_factory=factory)
            try:
                W = sparse_grid(n=8, density=0.3)
                await put(service, W)
                query = asyncio.ensure_future(service.handle_request({
                    "id": 1, "op": "dest", "graph": "g", "dest": 3}))
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(
                    None, factory.entered.wait, 10.0)
                delta = await service.handle_request({
                    "id": 2, "op": "put_graph", "graph": "g",
                    "edges": [[0, 3, 1]],
                })
                assert delta.result["version"] == 2
                factory.release.set()
                resp = await query
                assert resp.status == "ok"
                assert resp.result["version"] == 1
                assert resp.result["sow"] == [
                    int(x) for x in bellman_reference(W, 3, MAXINT)]
                assert list(service._columns) == []
                assert service.ladder.snapshot()["levels"] == {}
            finally:
                factory.release.set()
                await service.stop()

        run(main())
