"""Worker-pool fault tolerance: crashes, stalls, errors, shm hygiene.

The hardened shard supervisor must never hang and never leak: a killed
worker is respawned (once) and its shard recomputed, a second failure
falls back to an inline recompute in the parent, a stalled worker is
killed at ``shard_timeout``, and every path — success, crash, timeout,
error — releases all shared-memory blocks. Results stay bit-identical
to the inline sweep through every recovery path, and every absorbed
failure is recorded as a structured :class:`ShardFailure` in
``shard_report``.
"""

import os

import numpy as np
import pytest

from repro.core import all_pairs_minimum_cost
from repro.engine import (
    DEFAULT_SHARD_TIMEOUT,
    ShardFailure,
    clear_shard_chaos,
    set_shard_chaos,
    sharded_all_pairs,
)
from repro.ppa import PPAConfig, PPAMachine


def _graph(n, seed=7, density=0.35):
    rng = np.random.default_rng(seed)
    maxint = (1 << 16) - 1
    W = rng.integers(1, 9, size=(n, n)).astype(np.int64)
    W[rng.random((n, n)) < 1.0 - density] = maxint
    np.fill_diagonal(W, 0)
    return W


def _machine(n=10):
    return PPAMachine(PPAConfig(n=n, word_bits=16))


def _list_shm():
    try:
        return set(os.listdir("/dev/shm"))
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return set()


@pytest.fixture(autouse=True)
def _no_chaos_leftovers():
    clear_shard_chaos()
    yield
    clear_shard_chaos()


@pytest.fixture()
def inline_result():
    W = _graph(10)
    return W, all_pairs_minimum_cost(_machine(), W, workers=None)


def _assert_same_answers(res, ref):
    np.testing.assert_array_equal(res.dist, ref.dist)
    np.testing.assert_array_equal(res.succ, ref.succ)
    np.testing.assert_array_equal(res.iterations, ref.iterations)
    assert res.counters == ref.counters


class TestCrashRecovery:
    def test_killed_worker_is_respawned(self, inline_result):
        W, ref = inline_result
        set_shard_chaos(kill_shards={0: 1})  # first attempt of shard 0 dies
        res = sharded_all_pairs(_machine(), W, workers=2)
        _assert_same_answers(res, ref)
        failures = res.shard_report["failures"]
        assert len(failures) == 1
        assert failures[0]["kind"] == "crash"
        assert failures[0]["shard"] == 0
        assert failures[0]["recovered"] == "respawn"

    def test_twice_killed_shard_recomputed_inline(self, inline_result):
        W, ref = inline_result
        set_shard_chaos(kill_shards={0: 2})  # both attempts die
        res = sharded_all_pairs(_machine(), W, workers=2)
        _assert_same_answers(res, ref)
        failures = res.shard_report["failures"]
        assert [f["kind"] for f in failures] == ["crash", "crash"]
        assert failures[-1]["recovered"] == "inline"

    def test_all_workers_killed_still_completes(self, inline_result):
        W, ref = inline_result
        set_shard_chaos(kill_shards={0: 2, 1: 2})
        res = sharded_all_pairs(_machine(), W, workers=2)
        _assert_same_answers(res, ref)
        recovered = {f["recovered"] for f in res.shard_report["failures"]
                     if f["recovered"]}
        assert recovered == {"inline"}


class TestTimeouts:
    def test_stalled_worker_is_killed_and_retried(self, inline_result):
        W, ref = inline_result
        set_shard_chaos(slow_shards={1: 1}, slow_seconds=30.0)
        res = sharded_all_pairs(_machine(), W, workers=2,
                                shard_timeout=0.3)
        _assert_same_answers(res, ref)
        failures = res.shard_report["failures"]
        assert failures[0]["kind"] == "timeout"
        assert failures[0]["shard"] == 1
        assert res.shard_report["shard_timeout"] == 0.3

    def test_timeout_default_and_env_override(self, monkeypatch):
        assert DEFAULT_SHARD_TIMEOUT == 120.0
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "7.5")
        W = _graph(10)
        res = sharded_all_pairs(_machine(), W, workers=2)
        assert res.shard_report["shard_timeout"] == 7.5


class TestWorkerErrors:
    def test_raising_worker_recorded_and_recovered(self, inline_result):
        W, ref = inline_result
        set_shard_chaos(raise_shards={0: 2})
        res = sharded_all_pairs(_machine(), W, workers=2)
        _assert_same_answers(res, ref)
        failures = res.shard_report["failures"]
        assert failures[0]["kind"] == "error"
        assert "injected worker exception" in failures[0]["detail"]

    def test_shard_failure_to_dict_roundtrip(self):
        failure = ShardFailure(shard=1, destinations=(5, 10),
                               kind="crash", detail="exitcode -9",
                               attempt=0, recovered="respawn")
        d = failure.to_dict()
        assert d == {"shard": 1, "destinations": [5, 10], "kind": "crash",
                     "detail": "exitcode -9", "attempt": 0,
                     "recovered": "respawn"}


class TestForkSafety:
    def test_fork_while_tracker_lock_is_held(self, inline_result,
                                             monkeypatch):
        """Each worker forks while another parent thread holds the
        multiprocessing resource tracker's lock, so the child inherits it
        held; its shm attach must not need that lock."""
        import threading
        import time
        from multiprocessing import resource_tracker

        from repro.engine import shard

        lock = resource_tracker._resource_tracker._lock
        spawn = shard._ShardSupervisor.spawn

        def spawn_while_held(self, task, attempt=0):
            held, release = threading.Event(), threading.Event()

            def hold():
                with lock:
                    held.set()
                    release.wait(30)

            holder = threading.Thread(target=hold)
            holder.start()
            assert held.wait(30)
            try:
                spawn(self, task, attempt)
            finally:
                release.set()
                holder.join()

        monkeypatch.setattr(shard._ShardSupervisor, "spawn",
                            spawn_while_held)
        W, ref = inline_result
        start = time.monotonic()
        res = sharded_all_pairs(_machine(), W, workers=2, shard_timeout=10.0)
        elapsed = time.monotonic() - start
        _assert_same_answers(res, ref)
        assert "failures" not in res.shard_report
        assert elapsed < 5.0  # the reports arrive well inside the deadline

    def test_error_report_never_strands_the_queue_lock(self, inline_result,
                                                      monkeypatch):
        """A worker that reports an error is still releasing the result
        queue's shared write lock when the report arrives; the supervisor
        must not kill it in that window, or the respawned worker's report
        could never be sent."""
        import time

        from repro.engine import shard

        worker_main = shard._worker_main

        def slow_unlock_main(payload, task, attempt, result_queue):
            lock = result_queue._wlock

            class SlowRelease:
                acquire = lock.acquire

                def release(self):
                    time.sleep(0.3)  # widen the post-send window
                    lock.release()

            result_queue._wlock = SlowRelease()
            worker_main(payload, task, attempt, result_queue)

        monkeypatch.setattr(shard, "_worker_main", slow_unlock_main)
        set_shard_chaos(raise_shards={0: 1})
        W, ref = inline_result
        start = time.monotonic()
        res = sharded_all_pairs(_machine(), W, workers=2, shard_timeout=10.0)
        elapsed = time.monotonic() - start
        _assert_same_answers(res, ref)
        [failure] = res.shard_report["failures"]
        assert (failure["kind"], failure["recovered"]) == ("error", "respawn")
        assert elapsed < 5.0


class TestShmHygiene:
    """No shared-memory segment survives any recovery path."""

    @pytest.mark.parametrize("chaos", [
        {},
        {"kill_shards": {0: 1}},
        {"kill_shards": {0: 2, 1: 2}},
        {"raise_shards": {0: 2}},
    ], ids=["clean", "kill-once", "kill-all", "raise"])
    def test_no_dev_shm_leak(self, chaos):
        W = _graph(10)
        before = _list_shm()
        if chaos:
            set_shard_chaos(**chaos)
        sharded_all_pairs(_machine(), W, workers=2)
        clear_shard_chaos()
        leaked = _list_shm() - before
        assert not leaked, f"leaked shared memory segments: {leaked}"

    def test_no_leak_on_timeout(self):
        W = _graph(10)
        before = _list_shm()
        set_shard_chaos(slow_shards={0: 1}, slow_seconds=30.0)
        sharded_all_pairs(_machine(), W, workers=2, shard_timeout=0.3)
        clear_shard_chaos()
        leaked = _list_shm() - before
        assert not leaked, f"leaked shared memory segments: {leaked}"


class TestApiPlumbing:
    def test_shard_timeout_flows_through_all_pairs(self, inline_result):
        W, ref = inline_result
        res = all_pairs_minimum_cost(_machine(), W, workers=2,
                                     shard_timeout=11.0)
        _assert_same_answers(res, ref)
        assert res.shard_report["shard_timeout"] == 11.0

    def test_clean_run_reports_no_failures(self, inline_result):
        W, ref = inline_result
        res = sharded_all_pairs(_machine(), W, workers=2)
        _assert_same_answers(res, ref)
        assert "failures" not in res.shard_report
