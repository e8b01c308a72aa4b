"""Request coalescing: identical answers, shared flights, real batching.

Coalescing is a pure throughput optimisation — the tests here pin that
claim from three directions: chaos campaign digests are identical with
it on and off, single-flight waiters receive bit-identical payloads,
and the coalescer's accounting (lane fill, admission weight) reflects
real batches.
"""

import asyncio
import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.resilience import BackoffPolicy
from repro.serve.chaos import ChaosScenario, run_scenario
from repro.serve.coalesce import ColumnCoalescer
from repro.serve.loadgen import random_graph
from repro.serve.service import PathQueryService, ServiceConfig


def fast_config(**overrides) -> ServiceConfig:
    base = dict(
        workers=1,
        backoff=BackoffPolicy(base=0.001, cap=0.01, max_attempts=2),
        breaker_cooldown_s=0.2,
        recovery_successes=2,
    )
    base.update(overrides)
    return ServiceConfig(**base)


async def put(service, n=10, seed=7, name="g"):
    wire = random_graph(n, 0.4, np.random.default_rng(seed))
    resp = await service.handle_request({
        "id": "setup", "op": "put_graph", "graph": name,
        "weights": wire, "word_bits": 16,
    })
    assert resp.status == "ok", resp.error
    return wire


class TestCoalescedAnswers:
    def test_burst_coalesces_into_one_batch(self):
        async def main():
            service = PathQueryService(fast_config())
            try:
                await put(service)
                out = await asyncio.gather(*(
                    service.handle_request({"id": i, "op": "dest",
                                            "graph": "g", "dest": i})
                    for i in range(6)
                ))
                assert all(r.status == "ok" for r in out)
                assert {r.timing.get("batched_with") for r in out} == {6}
                snap = service.stats()["coalescer"]
                assert snap["batches"] == 1
                assert snap["lane_fill"] == {"6": 1}
                assert snap["coalesced_requests"] == 6
                # one admission slot consumed, weighted by 6 lanes
                adm = service.stats()["admission"]
                assert adm["admitted"] == 1
                assert adm["admitted_weight"] == 6
            finally:
                await service.stop()
        asyncio.run(main())

    def test_single_flight_payloads_bit_identical(self):
        async def main():
            service = PathQueryService(fast_config())
            try:
                await put(service)
                out = await asyncio.gather(*(
                    service.handle_request({"id": i, "op": "dest",
                                            "graph": "g", "dest": 3})
                    for i in range(5)
                ))
                assert all(r.status == "ok" for r in out)
                blobs = {
                    json.dumps([r.result["sow"], r.result["ptn"],
                                r.result["iterations"]])
                    for r in out
                }
                assert len(blobs) == 1  # byte-for-byte the same answer
                snap = service.stats()["coalescer"]
                assert snap["single_flight_hits"] == 4
                assert snap["lane_fill"] == {"1": 1}
                assert sum(
                    1 for r in out if r.timing.get("single_flight")
                ) == 4
            finally:
                await service.stop()
        asyncio.run(main())

    def test_full_batch_dispatches_early(self):
        async def main():
            service = PathQueryService(fast_config(max_lanes=2))
            try:
                await put(service)
                # all four join in one turn: only the max_lanes flush
                # splits them, each half as soon as it fills
                out = await asyncio.wait_for(asyncio.gather(*(
                    service.handle_request({"id": i, "op": "dest",
                                            "graph": "g", "dest": i})
                    for i in range(4)
                )), timeout=30)
                assert all(r.status == "ok" for r in out)
                snap = service.stats()["coalescer"]
                assert snap["flushed_full"] == 2
                assert snap["flushed_turn"] == 0
                assert snap["lane_fill"] == {"2": 2}
            finally:
                await service.stop()
        asyncio.run(main())

    def test_coalesced_matches_uncoalesced_answers(self):
        async def main():
            on = PathQueryService(fast_config(seed=5))
            off = PathQueryService(fast_config(seed=5, coalesce=False))
            try:
                await put(on)
                await put(off)
                a = await asyncio.gather(*(
                    on.handle_request({"id": i, "op": "dest",
                                       "graph": "g", "dest": i % 10})
                    for i in range(10)
                ))
                b = await asyncio.gather(*(
                    off.handle_request({"id": i, "op": "dest",
                                        "graph": "g", "dest": i % 10})
                    for i in range(10)
                ))
                for ra, rb in zip(a, b):
                    assert ra.status == rb.status == "ok"
                    assert ra.result["sow"] == rb.result["sow"]
                    assert ra.result["ptn"] == rb.result["ptn"]
                    assert ra.result["iterations"] == \
                        rb.result["iterations"]
            finally:
                await on.stop()
                await off.stop()
        asyncio.run(main())


class TestChaosDigestInvariance:
    @pytest.mark.parametrize("kinds", [
        ("healthy", "bus-fault"),
        ("update-storm",),
    ])
    def test_campaign_digest_identical_on_vs_off(self, kinds):
        """Coalescing changes throughput, never answers: the chaos
        digest over every verified answer must be invariant."""
        def digest_with(coalesce: bool) -> str:
            h = hashlib.blake2b(digest_size=16)
            for i in range(4):
                sc = ChaosScenario(
                    name=f"run{i:03d}-{kinds[i % len(kinds)]}",
                    kind=kinds[i % len(kinds)],
                    seed=90_000 + i, n=8, requests=10,
                    coalesce=coalesce,
                )
                outcome = asyncio.run(run_scenario(sc))
                assert outcome["wrong"] == 0
                h.update(json.dumps(
                    [sc.to_dict(), sorted(outcome["ok_answers"])],
                    sort_keys=True, separators=(",", ":"),
                ).encode())
            return h.hexdigest()

        assert digest_with(True) == digest_with(False)


class TestCacheHitSpan:
    def test_cached_answer_emits_cache_hit_span(self):
        async def main():
            service = PathQueryService(fast_config())
            try:
                await put(service)
                r1 = await service.handle_request(
                    {"id": 1, "op": "dest", "graph": "g", "dest": 2})
                assert r1.status == "ok"
                assert not r1.timing.get("cached")
                r2 = await service.handle_request(
                    {"id": 2, "op": "dest", "graph": "g", "dest": 2})
                assert r2.timing.get("cached") is True
                hits = service.profile().find("serve.cache_hit")
                assert len(hits) == 1
                assert hits[0].attrs["dest"] == 2
                assert hits[0].end >= hits[0].start
            finally:
                await service.stop()
        asyncio.run(main())


def _recording_dispatch():
    """A dispatch callback that records each batch's destinations and
    answers every lane at once."""
    batches: list[list[int]] = []

    async def dispatch(graph, waiters, deadline_at):
        batches.append(sorted(waiters))
        for d, fut in waiters.items():
            fut.set_result({"status": "ok", "payload": d})

    return batches, dispatch


class TestCloseRule:
    """A pending batch closes at the end of the event-loop turn that
    opened it, or at once when it reaches ``max_lanes``."""

    G = SimpleNamespace(name="g", version=1)

    def test_joins_in_one_turn_share_one_batch(self):
        async def main():
            batches, dispatch = _recording_dispatch()
            co = ColumnCoalescer(dispatch)
            futures = [co.join(self.G, d, 0.0)[0] for d in range(5)]
            await asyncio.gather(*futures)
            assert batches == [[0, 1, 2, 3, 4]]
            assert co.stats.flushed_turn == 1
            assert co.stats.flushed_full == 0
            await co.drain()
        asyncio.run(main())

    def test_join_after_a_yield_opens_a_new_batch(self):
        async def main():
            batches, dispatch = _recording_dispatch()
            co = ColumnCoalescer(dispatch)
            first, _ = co.join(self.G, 0, 0.0)
            await asyncio.sleep(0)
            second, _ = co.join(self.G, 1, 0.0)
            await asyncio.gather(first, second)
            assert batches == [[0], [1]]
            assert co.stats.flushed_turn == 2
            await co.drain()
        asyncio.run(main())

    def test_lone_join_dispatches_without_a_timer_task(self):
        async def main():
            batches, dispatch = _recording_dispatch()
            co = ColumnCoalescer(dispatch)
            before = asyncio.all_tasks()
            future, _ = co.join(self.G, 3, 0.0)
            assert asyncio.all_tasks() == before
            assert co.snapshot()["pending_batches"] == 1
            await asyncio.sleep(0)
            # the turn that opened the batch has ended: it is dispatched
            assert co.snapshot()["pending_batches"] == 0
            assert len(co._tasks) == 1
            assert (await future)["payload"] == 3
            assert batches == [[3]]
            await co.drain()
        asyncio.run(main())

    def test_full_flush_mid_turn_leaves_the_rest_for_the_turn_end(self):
        async def main():
            batches, dispatch = _recording_dispatch()
            co = ColumnCoalescer(dispatch, max_lanes=2)
            futures = [co.join(self.G, d, 0.0)[0] for d in range(5)]
            # two batches filled and left at once; the fifth lane waits
            assert co.stats.flushed_full == 2
            assert co.snapshot()["pending_batches"] == 1
            await asyncio.gather(*futures)
            assert batches == [[0, 1], [2, 3], [4]]
            assert co.stats.flushed_turn == 1
            assert co.stats.lane_fill == {"2": 2, "1": 1}
            await co.drain()
        asyncio.run(main())

    def test_drain_flushes_a_batch_opened_this_turn(self):
        async def main():
            batches, dispatch = _recording_dispatch()
            co = ColumnCoalescer(dispatch)
            future, _ = co.join(self.G, 2, 0.0)
            await co.drain()
            assert future.done()
            assert batches == [[2]]
            assert co.stats.flushed_turn == 1
            await asyncio.sleep(0)  # the turn-end close finds nothing
            assert co.stats.batches == 1
        asyncio.run(main())


class TestSingleFlight:
    def test_a_resolved_flight_is_not_joined(self):
        """A join that meets a flight already resolved, before its
        bookkeeping is cleared, opens a fresh flight; the old flight's
        cleanup then leaves the fresh one in place."""
        async def main():
            batches, dispatch = _recording_dispatch()
            co = ColumnCoalescer(dispatch)
            g = SimpleNamespace(name="g", version=1)
            old, _ = co.join(g, 3, 0.0)
            old.set_result({"status": "deadline"})
            fresh, single = co.join(g, 3, 0.0)
            assert fresh is not old and not single
            await asyncio.sleep(0)  # the old flight's cleanup runs
            again, single = co.join(g, 3, 0.0)
            assert again is fresh and single
            assert (await fresh)["payload"] == 3
            assert batches == [[3]]
            await co.drain()
        asyncio.run(main())
