"""Pinning regressions for the true positives `repro lint --host` found.

Each test locks in the behavioural fix for one finding the host
analyzer surfaced when it first ran over the tree (the structural side
is pinned globally: tests/verify/test_sanitizer_bridge.py asserts the
whole tree stays statically clean):

* ``host-shm-attach-leak`` in ``engine/shard.py`` — ``_run_shard``
  attached all five planes in a list comprehension, so a failing attach
  stranded the earlier handles;
* ``host-orphan-task`` adjacent in ``serve/coalesce.py`` — the batch
  dispatch task's exception was never consumed, stranding every waiter
  in the flushed batch;
* ``host-blocking-io`` in ``serve/service.py`` — ``stop()`` joined the
  thread pool synchronously on the event loop.
"""

import asyncio
from types import SimpleNamespace

import pytest

from repro.engine import shard as shard_mod
from repro.ppa.topology import PPAConfig
from repro.serve.coalesce import ColumnCoalescer


class _FakeShm:
    """Attach stand-in recording whether close() ran."""

    def __init__(self, name):
        self.name = name
        self.closed = False

    def close(self):
        self.closed = True


class TestShardPartialAttach:
    def test_failed_attach_closes_earlier_handles(self, monkeypatch):
        # plane 3 of 5 fails to attach: the two already-open handles
        # must be closed on the way out (pre-fix, the comprehension
        # stranded them)
        opened = []

        def fake_attach(name):
            if len(opened) == 2:
                raise FileNotFoundError(f"no such segment: {name}")
            shm = _FakeShm(name)
            opened.append(shm)
            return shm

        monkeypatch.setattr(shard_mod, "_attach", fake_attach)
        monkeypatch.setattr(shard_mod, "_worker_ctx", {
            "config": PPAConfig(n=4),
            "fields": ("bus_cycles",),
            "w": "a", "dist": "b", "succ": "c",
            "iters": "d", "lanes": "e",
        })
        with pytest.raises(FileNotFoundError):
            shard_mod._run_shard((0, 0, 2))
        assert len(opened) == 2
        assert all(shm.closed for shm in opened)


class TestCoalescerDispatchFailure:
    def test_dispatch_exception_resolves_waiters(self):
        # a dispatch task that dies must resolve every pending waiter
        # with an error outcome (pre-fix: unconsumed task exception,
        # waiters hung forever)
        async def main():
            async def dispatch(graph, waiters, deadline_at):
                raise RuntimeError("engine fell over")

            co = ColumnCoalescer(dispatch)
            g = SimpleNamespace(name="g", version=1)
            future, single = co.join(g, dest=0, deadline_at=0.0)
            assert not single
            outcome = await asyncio.wait_for(future, timeout=5)
            assert outcome["status"] == "error"
            assert "engine fell over" in outcome["error"]
            assert co.stats.dispatch_errors == 1
            assert co.stats.to_dict()["dispatch_errors"] == 1
            await co.drain()

        asyncio.run(main())

    def test_cancelled_dispatch_resolves_waiters(self):
        async def main():
            started = asyncio.Event()

            async def dispatch(graph, waiters, deadline_at):
                started.set()
                await asyncio.sleep(60)

            co = ColumnCoalescer(dispatch)
            g = SimpleNamespace(name="g", version=1)
            future, _ = co.join(g, dest=0, deadline_at=0.0)
            await started.wait()
            for task in list(co._tasks):
                task.cancel()
            outcome = await asyncio.wait_for(future, timeout=5)
            assert outcome["status"] == "error"
            assert "cancelled" in outcome["error"]

        asyncio.run(main())

    def test_successful_dispatch_counts_no_errors(self):
        async def main():
            async def dispatch(graph, waiters, deadline_at):
                for fut in waiters.values():
                    fut.set_result({"status": "ok", "payload": {}})

            co = ColumnCoalescer(dispatch)
            g = SimpleNamespace(name="g", version=1)
            future, _ = co.join(g, dest=0, deadline_at=0.0)
            outcome = await asyncio.wait_for(future, timeout=5)
            assert outcome["status"] == "ok"
            await co.drain()
            assert co.stats.dispatch_errors == 0

        asyncio.run(main())


class TestStopOffloadsExecutorJoin:
    def test_loop_keeps_ticking_while_stop_joins_threads(self):
        # stop() joins the thread pool via run_in_executor: a heartbeat
        # task must keep running while a slow in-flight solve holds a
        # worker thread (pre-fix, shutdown(wait=True) froze the loop)
        import threading
        import time as time_mod

        from repro.serve.service import PathQueryService, ServiceConfig

        async def main():
            service = PathQueryService(ServiceConfig())
            release = threading.Event()

            def slow_job():
                release.wait(timeout=10)

            loop = asyncio.get_running_loop()
            job = loop.run_in_executor(service._threads(), slow_job)
            ticks = 0

            async def heartbeat():
                nonlocal ticks
                while True:
                    await asyncio.sleep(0.01)
                    ticks += 1

            beat = asyncio.create_task(heartbeat())
            stop = asyncio.create_task(service.stop())
            await asyncio.sleep(0.15)
            ticks_during_stop = ticks
            release.set()
            await stop
            await job
            beat.cancel()
            await asyncio.gather(beat, return_exceptions=True)
            assert not stop.done() or service._executor is None
            # ~15 ticks expected; >=5 proves the loop never froze
            assert ticks_during_stop >= 5, ticks_during_stop

        asyncio.run(main())

    def test_stop_is_idempotent(self):
        from repro.serve.service import PathQueryService, ServiceConfig

        async def main():
            service = PathQueryService(ServiceConfig())
            service._threads()
            await service.stop()
            assert service._executor is None
            await service.stop()

        asyncio.run(main())
