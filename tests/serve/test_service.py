"""End-to-end service behaviour: correctness, shedding, deadlines,
retry-with-degradation, caching, TCP transport.

Slow or faulty compute is injected through the service's
``machine_factory`` — the same seam the chaos harness uses — so every
scenario here is deterministic.
"""

import asyncio
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.ppa import FaultKind, FaultPlan, PPAConfig, PPAMachine
from repro.resilience import BackoffPolicy
from repro.serve import (
    PathQueryService,
    ServeClient,
    ServiceConfig,
)
from repro.serve.oracle import bellman_reference
from repro.serve.service import default_machine_factory

MAXINT = (1 << 16) - 1

WIRE = [
    [0, 2, None, 4, None, None],
    [None, 0, 1, None, 7, None],
    [None, None, 0, 3, None, None],
    [1, None, None, 0, None, 2],
    [None, None, None, None, 0, 1],
    [None, 3, None, None, None, 0],
]
GRID = np.asarray(
    [[MAXINT if v is None else v for v in row] for row in WIRE],
    dtype=np.int64,
)


def run(coro):
    return asyncio.run(coro)


def fast_config(**overrides) -> ServiceConfig:
    base = dict(
        workers=1,
        backoff=BackoffPolicy(base=0.001, cap=0.01, max_attempts=2),
        breaker_cooldown_s=0.2,
        recovery_successes=2,
    )
    base.update(overrides)
    return ServiceConfig(**base)


async def put(service, name="g", wire=WIRE):
    resp = await service.handle_request({
        "id": "put", "op": "put_graph", "graph": name, "weights": wire,
    })
    assert resp.status == "ok", resp.error
    return resp


class TestQueries:
    def test_point_matches_reference(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            for source in range(6):
                for dest in range(6):
                    resp = await service.handle_request({
                        "id": f"{source}-{dest}", "op": "point",
                        "graph": "g", "source": source, "dest": dest,
                    })
                    assert resp.status == "ok"
                    expect = int(bellman_reference(GRID, dest,
                                                   MAXINT)[source])
                    if expect >= MAXINT:
                        assert not resp.result["reachable"]
                        assert resp.result["cost"] is None
                    else:
                        assert resp.result["cost"] == expect
            await service.stop()

        run(main())

    def test_point_path_is_walkable(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            resp = await service.handle_request({
                "id": 1, "op": "point", "graph": "g",
                "source": 0, "dest": 5, "want_path": True,
            })
            path = resp.result["path"]
            assert path[0] == 0 and path[-1] == 5
            cost = sum(int(GRID[a, b]) for a, b in zip(path, path[1:]))
            assert cost == resp.result["cost"]
            await service.stop()

        run(main())

    def test_dest_returns_whole_column(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            resp = await service.handle_request({
                "id": 1, "op": "dest", "graph": "g", "dest": 3,
            })
            want = [int(v) for v in bellman_reference(GRID, 3, MAXINT)]
            assert resp.result["sow"] == want
            await service.stop()

        run(main())

    def test_apsp_summary_and_column_reuse(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            resp = await service.handle_request({
                "id": 1, "op": "apsp", "graph": "g",
            })
            assert resp.status == "ok"
            assert resp.result["n"] == 6
            assert len(resp.result["digest"]) == 32
            # point queries now come straight from the APSP cache
            hits_before = service.counters["cache_hits"]
            resp = await service.handle_request({
                "id": 2, "op": "point", "graph": "g",
                "source": 0, "dest": 1,
            })
            assert resp.status == "ok"
            assert resp.timing.get("cached")
            assert service.counters["cache_hits"] == hits_before + 1
            await service.stop()

        run(main())

    def test_repeated_dest_is_cached(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            first = await service.handle_request({
                "id": 1, "op": "dest", "graph": "g", "dest": 2,
            })
            second = await service.handle_request({
                "id": 2, "op": "dest", "graph": "g", "dest": 2,
            })
            assert second.timing.get("cached")
            assert second.result["sow"] == first.result["sow"]
            await service.stop()

        run(main())

    def test_put_graph_bumps_version_and_invalidates(self):
        async def main():
            service = PathQueryService(fast_config())
            first = await put(service)
            assert first.result["version"] == 1
            await service.handle_request({
                "id": 1, "op": "dest", "graph": "g", "dest": 0,
            })
            shorter = [[0, 1], [None, 0]]
            second = await put(service, wire=shorter)
            assert second.result["version"] == 2
            resp = await service.handle_request({
                "id": 2, "op": "dest", "graph": "g", "dest": 0,
            })
            assert not resp.timing.get("cached")
            assert resp.result["sow"] == [0, MAXINT]
            await service.stop()

        run(main())


class TestValidation:
    @pytest.mark.parametrize("body, fragment", [
        ({"op": "point", "graph": "nope", "source": 0, "dest": 1},
         "unknown graph"),
        ({"op": "point", "graph": "g", "source": 99, "dest": 1},
         "source"),
        ({"op": "point", "graph": "g", "source": 0, "dest": 99}, "dest"),
        ({"op": "dest", "graph": "g"}, "dest"),
        ({"op": "apsp"}, "graph"),
        ({"op": "put_graph", "graph": "x"}, "weights"),
        ({"op": "put_graph", "graph": "x", "weights": [[0]]}, "square"),
        ({"op": "nonsense"}, "unknown op"),
    ])
    def test_bad_requests_get_error_responses(self, body, fragment):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            resp = await service.handle_request(dict(body, id="bad"))
            assert resp.status == "error"
            assert fragment in resp.error
            await service.stop()

        run(main())

    def test_del_graph(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            resp = await service.handle_request({
                "id": 1, "op": "del_graph", "graph": "g",
            })
            assert resp.result["deleted"]
            resp = await service.handle_request({
                "id": 2, "op": "point", "graph": "g",
                "source": 0, "dest": 1,
            })
            assert resp.status == "error"
            await service.stop()

        run(main())


#: WIRE with the 3 -> 0 edge gone and 0 -> 3 cheaper: column 3 changes.
REWIRE = [row[:] for row in WIRE]
REWIRE[3][0] = None
REWIRE[0][3] = 1
REWIRE_DEST3 = bellman_reference(
    np.asarray([[MAXINT if v is None else v for v in row]
                for row in REWIRE]), 3, MAXINT).tolist()


class TestDeleteThenReput:
    """A name deleted and registered again never serves the old graph's
    answers: versions keep counting up across the delete, and the
    deleted graph's cached answers are dropped with it."""

    def test_reput_after_delete_serves_the_new_weights(self):
        async def main():
            service = PathQueryService(fast_config())
            try:
                await put(service)
                first = await service.handle_request({
                    "id": 1, "op": "dest", "graph": "g", "dest": 3})
                assert first.status == "ok"
                await service.handle_request({
                    "id": 2, "op": "del_graph", "graph": "g"})
                assert service.stats()["caches"]["columns"] == 0
                reput = await put(service, wire=REWIRE)
                assert reput.result["version"] == 2
                resp = await service.handle_request({
                    "id": 3, "op": "dest", "graph": "g", "dest": 3})
                assert resp.status == "ok"
                assert not resp.timing.get("cached")
                assert resp.result["version"] == 2
                assert resp.result["sow"] == REWIRE_DEST3
                assert resp.result["sow"] != first.result["sow"]
            finally:
                await service.stop()

        run(main())

    @pytest.mark.parametrize("coalesce", [True, False],
                             ids=["coalesced", "uncoalesced"])
    def test_reput_while_the_deleted_version_computes(self, coalesce):
        async def main():
            service = PathQueryService(fast_config(coalesce=coalesce),
                                       machine_factory=_GateFactory(0.3))
            try:
                await put(service)
                old = asyncio.ensure_future(service.handle_request({
                    "id": 1, "op": "dest", "graph": "g", "dest": 3}))
                await asyncio.sleep(0.05)  # the old batch is computing
                await service.handle_request({
                    "id": 2, "op": "del_graph", "graph": "g"})
                await put(service, wire=REWIRE)
                resp = await service.handle_request({
                    "id": 3, "op": "dest", "graph": "g", "dest": 3})
                assert (await old).result["version"] == 1
                assert resp.status == "ok"
                assert resp.result["version"] == 2
                assert not resp.timing.get("single_flight")
                assert resp.result["sow"] == REWIRE_DEST3
                # the old batch finished after the re-put: its column
                # must not answer for the new graph
                again = await service.handle_request({
                    "id": 4, "op": "dest", "graph": "g", "dest": 3})
                assert again.result["sow"] == REWIRE_DEST3
            finally:
                await service.stop()

        run(main())


class _GateFactory:
    """Machine factory whose compute blocks until released (via a
    threading event checked inside a fake machine build)."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.calls = 0

    def __call__(self, n: int, word_bits: int) -> PPAMachine:
        self.calls += 1
        time.sleep(self.delay_s)
        return default_machine_factory(n, word_bits)


class TestSingleFlightDeadline:
    def test_joiner_outlives_the_flight_it_joined(self):
        """A single-flight joiner with a later deadline than the flight
        it joined is not failed with that flight's deadline: it joins a
        fresh flight with its own remaining time."""
        async def main():
            service = PathQueryService(fast_config(),
                                       machine_factory=_GateFactory(0.3))
            try:
                await put(service)
                a = asyncio.ensure_future(service.handle_request({
                    "id": "a", "op": "dest", "graph": "g", "dest": 3,
                    "deadline_ms": 100}))
                await asyncio.sleep(0.02)
                b = await service.handle_request({
                    "id": "b", "op": "dest", "graph": "g", "dest": 3,
                    "deadline_ms": 5000})
                assert (await a).status == "deadline"
                assert b.status == "ok", b.error
                assert b.result["sow"] == \
                    bellman_reference(GRID, 3, MAXINT).tolist()
                assert service.stats()["coalescer"]["single_flight_hits"] \
                    == 1
            finally:
                await service.stop()

        run(main())


#: the ways a cache-missing query enters the service's one admission
#: step and attempt loop: entry -> (op, coalesce)
ENTRIES = {
    "column-coalesced": ("dest", True),
    "column-uncoalesced": ("dest", False),
    "apsp": ("apsp", True),
}


async def burst(service, entry, count, deadline_ms):
    """``count`` concurrent queries, one graph each, so that no two
    share a batch or an admission slot."""
    op = ENTRIES[entry][0]
    for i in range(count):
        await put(service, name=f"g{i}")
    bodies = []
    for i in range(count):
        body = {"id": f"q{i}", "op": op, "graph": f"g{i}",
                "deadline_ms": deadline_ms}
        if op == "dest":
            body["dest"] = i % 6
        bodies.append(body)
    return await asyncio.gather(*(
        service.handle_request(b) for b in bodies
    ))


@pytest.mark.parametrize("entry", list(ENTRIES))
class TestOverload:
    def test_shed_with_backpressure_signal(self, entry):
        async def main():
            factory = _GateFactory(0.3)
            service = PathQueryService(
                fast_config(max_inflight=1, max_queue=1,
                            coalesce=ENTRIES[entry][1]),
                machine_factory=factory,
            )
            responses = await burst(service, entry, 6, 5_000)
            statuses = [r.status for r in responses]
            assert statuses.count("shed") >= 3
            for r in responses:
                if r.status == "shed":
                    assert r.retry_after_ms is not None
                    assert r.retry_after_ms > 0
            assert service.counters["shed"] >= 3
            await service.stop()
            assert service.admission.inflight == 0

        run(main())

    def test_deadline_in_queue_and_during_compute(self, entry):
        async def main():
            factory = _GateFactory(0.4)
            service = PathQueryService(
                fast_config(max_inflight=1, max_queue=4,
                            coalesce=ENTRIES[entry][1]),
                machine_factory=factory,
            )
            responses = await burst(service, entry, 3, 120)
            assert {r.status for r in responses} == {"deadline"}
            assert service.counters["deadline"] == 3
            assert service.counters["abandoned"] == 1
            # abandoned compute still finished and released its slot
            await service.stop()
            assert service.admission.inflight == 0

        run(main())


class _FaultyFactory:
    """Every machine carries a stuck-open bus fault — the analytic tiers
    refuse it, the cycle engine computes garbage the verifier rejects,
    and only the resilient rung (with spare PEs) recovers."""

    def __call__(self, n: int, word_bits: int) -> PPAMachine:
        machine = default_machine_factory(n, word_bits)
        machine.inject_faults(
            FaultPlan().add(1, 3, FaultKind.STUCK_OPEN, axis=0)
        )
        return machine


class TestDegradation:
    def test_bus_fault_degrades_to_resilient_rung(self):
        async def main():
            service = PathQueryService(fast_config(),
                                       machine_factory=_FaultyFactory())
            await put(service)
            resp = await service.handle_request({
                "id": 1, "op": "dest", "graph": "g", "dest": 0,
            })
            assert resp.status == "ok"
            want = [int(v) for v in bellman_reference(GRID, 0, MAXINT)]
            assert resp.result["sow"] == want
            # the downgrade is recorded, machine-readably
            assert resp.degraded is not None
            assert resp.degraded["rung"] == 4
            assert resp.degraded["resilient"]
            assert resp.degraded["reasons"]
            assert service.counters["verify_rejections"] >= 1
            assert resp.timing["attempts"] > 1
            await service.stop()

        run(main())

    def test_ladder_is_sticky_then_recovers(self):
        async def main():
            service = PathQueryService(fast_config(),
                                       machine_factory=_FaultyFactory())
            await put(service)
            first = await service.handle_request({
                "id": 1, "op": "dest", "graph": "g", "dest": 0,
            })
            attempts_first = first.timing["attempts"]
            second = await service.handle_request({
                "id": 2, "op": "dest", "graph": "g", "dest": 1,
            })
            # sticky level: no ladder re-walk on the next request
            assert second.timing["attempts"] < attempts_first
            assert second.degraded is not None
            await service.stop()

        run(main())

    def test_breaker_open_floors_the_ladder(self):
        async def main():
            service = PathQueryService(fast_config(workers=2))
            await put(service)
            for _ in range(service.config.breaker_failure_threshold):
                service.breaker.record_failure("induced")
            resp = await service.handle_request({
                "id": 1, "op": "apsp", "graph": "g",
            })
            assert resp.status == "ok"
            assert resp.degraded is not None
            assert resp.degraded["rung"] >= 1
            assert any("breaker" in r for r in resp.degraded["reasons"])
            assert resp.result["workers"] == 1
            await service.stop()

        run(main())

    def test_healthy_response_carries_no_degraded_stamp(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            resp = await service.handle_request({
                "id": 1, "op": "point", "graph": "g",
                "source": 0, "dest": 1,
            })
            assert resp.status == "ok"
            assert resp.degraded is None
            await service.stop()

        run(main())


#: One retrying request per entry, against a bus-faulted machine (the
#: ladder walks down to the resilient rung); prints the backoff delays.
_JITTER_SCRIPT = """
import asyncio, json, sys
from repro.ppa import FaultKind, FaultPlan
from repro.resilience import BackoffPolicy
from repro.serve.service import (PathQueryService, ServiceConfig,
                                 default_machine_factory)

DELAYS = []

class Recording(BackoffPolicy):
    def delay(self, attempt, rng=None):
        DELAYS.append(super().delay(attempt, rng))
        return DELAYS[-1]

def faulty(n, word_bits):
    machine = default_machine_factory(n, word_bits)
    machine.inject_faults(FaultPlan().add(1, 3, FaultKind.STUCK_OPEN, axis=0))
    return machine

async def main(op, coalesce):
    service = PathQueryService(ServiceConfig(
        workers=1, coalesce=coalesce,
        backoff=Recording(base=0.001, cap=0.002, max_attempts=2),
    ), machine_factory=faulty)
    await service.handle_request({"id": "put", "op": "put_graph",
                                  "graph": "g", "weights": WIRE})
    body = {"id": "q1", "op": op, "graph": "g"}
    if op == "dest":
        body["dest"] = 0
    status = (await service.handle_request(body)).status
    await service.stop()
    return status

WIRE = json.loads(sys.argv[1])
out = {}
for op, coalesce in (("dest", True), ("dest", False), ("apsp", False)):
    DELAYS.clear()
    status = asyncio.run(main(op, coalesce))
    out[f"{op}-{coalesce}"] = [status, list(DELAYS)]
print(json.dumps(out))
"""


class TestRetryJitter:
    def test_backoff_delays_replay_across_processes(self):
        """``ServiceConfig.seed`` pins the retry jitter in any process:
        str hashing is salted per process, the jitter seed must not be."""
        src = os.path.dirname(os.path.dirname(repro.__file__))

        def delays(hash_seed: str) -> dict:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", _JITTER_SCRIPT, json.dumps(WIRE)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        first, second = delays("1"), delays("2")
        for status, sequence in first.values():
            assert status == "ok"
            assert sequence, "the request never retried"
        assert first == second


class TestIntrospection:
    def test_stats_and_health_and_profile(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            await service.handle_request({
                "id": 1, "op": "point", "graph": "g",
                "source": 0, "dest": 1,
            })
            stats = (await service.handle_request(
                {"id": 2, "op": "stats"})).result
            assert stats["graphs"]["g"]["n"] == 6
            assert stats["counters"]["ok"] >= 2
            health = (await service.handle_request(
                {"id": 3, "op": "health"})).result
            assert health["status"] == "healthy"
            profile = service.profile()
            names = [s.name for s in profile.spans]
            assert "serve.request" in names
            assert profile.find("serve.attempt")
            await service.stop()

        run(main())


class TestTcpTransport:
    def test_client_roundtrip_and_multiplexing(self):
        async def main():
            service = PathQueryService(fast_config())
            server = await service.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with ServeClient("127.0.0.1", port) as client:
                assert (await client.ping()).result["pong"]
                await client.put_graph("g", WIRE)
                futures = [client.submit("point", graph="g",
                                         source=s, dest=d)
                           for s in range(6) for d in range(6)]
                await client.drain()
                responses = await asyncio.gather(*futures)
                assert all(r.status == "ok" for r in responses)
                costs = {(r.result["source"], r.result["dest"]):
                         r.result["cost"] for r in responses}
                assert costs[(0, 2)] == 3
            await service.stop()

        run(main())

    def test_malformed_line_gets_error_response(self):
        async def main():
            service = PathQueryService(fast_config())
            server = await service.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 5)
            assert b'"error"' in line and b"malformed" in line
            writer.close()
            await writer.wait_closed()
            await service.stop()

        run(main())
