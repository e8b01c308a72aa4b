"""Unit coverage for the runtime leak sanitizer.

Exercises the three censuses (pending tasks, open shm, held slots) in
isolation and through ``PathQueryService(sanitize=True)``: a clean
service stops clean, and each planted leak makes ``stop()`` raise
:class:`SanitizerViolation` naming the leaked resource. The
static-clean ⇒ sanitizer-clean bridge across the chaos campaign lives
in test_sanitizer_bridge.py.
"""

import asyncio

import pytest

from repro.verify import sanitizer
from repro.verify.sanitizer import (
    HostSanitizer,
    LeakCensus,
    SanitizerViolation,
    note_shm_create,
    note_shm_release,
    open_shm_census,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends with an empty shm registry."""
    sanitizer._open_shm.clear()
    yield
    sanitizer._open_shm.clear()


class TestShmRegistry:
    def test_disarmed_hooks_are_noops(self):
        note_shm_create("psm_x", "test")
        assert open_shm_census() == {}

    def test_armed_registry_tracks_create_and_release(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        note_shm_create("psm_x", "test")
        assert open_shm_census() == {"psm_x": "test"}
        note_shm_release("psm_x")
        assert open_shm_census() == {}

    def test_sharded_apsp_leaves_registry_empty(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        import numpy as np

        from repro.engine.shard import sharded_all_pairs
        from repro.ppa.machine import PPAMachine
        from repro.ppa.topology import PPAConfig
        from repro.workloads import WeightSpec, gnp_digraph

        n = 6
        W = gnp_digraph(n, 0.5, seed=4, weights=WeightSpec(1, 9),
                        inf_value=(1 << 16) - 1)
        sharded_all_pairs(PPAMachine(PPAConfig(n=n)), W, workers=2)
        assert open_shm_census() == {}


class TestHostSanitizer:
    def test_task_census_sees_pending_tasks(self):
        async def main():
            san = HostSanitizer()
            san.arm(asyncio.get_running_loop())
            try:
                done = asyncio.create_task(asyncio.sleep(0),
                                           name="done-task")
                pending = asyncio.create_task(asyncio.sleep(30),
                                              name="leaky-task")
                await done
                census = san.pending_task_census()
                assert "leaky-task" in census
                assert "done-task" not in census
                pending.cancel()
                await asyncio.gather(pending, return_exceptions=True)
                assert san.pending_task_census() == []
            finally:
                san.disarm()

        asyncio.run(main())

    def test_check_shutdown_raises_with_description(self):
        async def main():
            san = HostSanitizer()
            san.arm(asyncio.get_running_loop())
            try:
                task = asyncio.create_task(asyncio.sleep(30),
                                           name="leaky-task")
                with pytest.raises(SanitizerViolation) as err:
                    san.check_shutdown()
                assert "leaky-task" in str(err.value)
                assert not err.value.census.clean
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
            finally:
                san.disarm()

        asyncio.run(main())

    def test_arm_is_idempotent_and_restores_factory(self):
        async def main():
            loop = asyncio.get_running_loop()
            before = loop.get_task_factory()
            san = HostSanitizer()
            san.arm(loop)
            san.arm(loop)
            assert san.armed
            san.disarm()
            san.disarm()
            assert loop.get_task_factory() is before

        asyncio.run(main())

    def test_census_to_dict_shape(self):
        census = LeakCensus(pending_tasks=["t"], open_shm={"s": "o"},
                            held_slots=1, queued_waiters=2)
        body = census.to_dict()
        assert body == {
            "clean": False,
            "pending_tasks": ["t"],
            "open_shm": {"s": "o"},
            "held_slots": 1,
            "queued_waiters": 2,
        }
        assert "pending task" in census.describe()
        assert "shm segment" in census.describe()


class TestServiceIntegration:
    @staticmethod
    def _service():
        from repro.serve.service import PathQueryService, ServiceConfig

        return PathQueryService(ServiceConfig(),
                                sanitize=True)

    WIRE = [[0, 2, None], [None, 0, 3], [1, None, 0]]

    async def _put(self, service):
        put = await service.handle_request({
            "id": "g", "op": "put_graph", "graph": "g",
            "weights": self.WIRE, "word_bits": 16,
        })
        assert put.status == "ok", put.error

    def test_clean_service_stops_clean(self):
        async def main():
            service = self._service()
            await self._put(service)
            resp = await service.handle_request({
                "id": "1", "op": "point", "graph": "g",
                "source": 0, "dest": 2,
            })
            assert resp.status == "ok"
            await service.stop()
            assert service.last_census is not None
            assert service.last_census.clean
            assert service.stats()["sanitizer"]["last_census"]["clean"]

        asyncio.run(main())

    def test_orphan_task_trips_shutdown(self):
        async def main():
            service = self._service()
            await self._put(service)
            leak = asyncio.create_task(asyncio.sleep(30),
                                       name="planted-orphan")
            try:
                with pytest.raises(SanitizerViolation) as err:
                    await service.stop()
                assert "planted-orphan" in str(err.value)
            finally:
                leak.cancel()
                await asyncio.gather(leak, return_exceptions=True)

        asyncio.run(main())

    def test_held_slot_trips_shutdown(self):
        async def main():
            service = self._service()
            await self._put(service)
            await service.admission.acquire()
            with pytest.raises(SanitizerViolation) as err:
                await service.stop()
            assert err.value.census.held_slots == 1
            service.admission.release()

        asyncio.run(main())

    def test_leaked_shm_trips_shutdown(self):
        async def main():
            service = self._service()
            await self._put(service)
            note_shm_create("psm_planted", "test")
            try:
                with pytest.raises(SanitizerViolation) as err:
                    await service.stop()
                assert "psm_planted" in str(err.value)
            finally:
                note_shm_release("psm_planted")

        asyncio.run(main())

    def test_sanitize_off_records_nothing(self):
        from repro.serve.service import PathQueryService, ServiceConfig

        async def main():
            service = PathQueryService(ServiceConfig(),
                                       sanitize=False)
            await self._put(service)
            await service.stop()
            assert service.sanitizer is None
            assert service.stats()["sanitizer"] is None

        asyncio.run(main())

    def test_env_flag_arms_service(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        from repro.serve.service import PathQueryService, ServiceConfig

        service = PathQueryService(ServiceConfig())
        assert service.sanitizer is not None
