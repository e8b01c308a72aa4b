"""Per-layer tracing for the benchmark's traced runs.

Nothing in ``src/`` changes: :func:`install` rebinds the module attributes
each layer's callers look up (``repro.engine.compiled.run_analytic_mcp``,
``repro.serve.service.verify_mcp``, ``PPAMachine.broadcast`` ...) to timing
wrappers. Every synchronous wrapper records calls, wall time and thread CPU,
both inclusive and *self* (its time minus the time of wrappers nested inside
it on the same thread). Coroutine wrappers record wall-time samples only:
thread CPU means nothing across ``await``.

Forked APSP shard workers inherit the wrappers; each worker resets its copy
of the recorder, and its snapshot rides home inside the shard report the
parent already collects, where the parent merges it.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np

#: Slots per timed layer: calls, wall, cpu, self wall, self cpu (seconds).
_CALLS, _WALL, _CPU, _SELF_WALL, _SELF_CPU = range(5)
#: Report key the shard wrapper adds to each worker's report.
SHARD_KEY = "perfbench_layers"


class Recorder:
    """Thread-safe accumulator of layer timings, counts and samples."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.timed: dict[str, list] = {}
            self.counts: dict[str, float] = {}
            self.samples: dict[str, list] = {}
            self.peaks: dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add_timed(self, name: str, wall: float, cpu: float,
                  self_wall: float, self_cpu: float, calls: int = 1) -> None:
        with self._lock:
            slot = self.timed.setdefault(name, [0, 0.0, 0.0, 0.0, 0.0])
            slot[_CALLS] += calls
            slot[_WALL] += wall
            slot[_CPU] += cpu
            slot[_SELF_WALL] += self_wall
            slot[_SELF_CPU] += self_cpu

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.peaks[name] = max(self.peaks.get(name, value), value)

    def wrap(self, name: str, fn, after=None):
        """A timed stand-in for *fn*; ``after(result, args, kwargs)``, if
        given, runs outside the timed region to record counts."""

        def timed(*args, **kwargs):
            stack = self._stack()
            nested = [0.0, 0.0]
            stack.append(nested)
            w0, c0 = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - w0
                cpu = time.thread_time() - c0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += cpu
                self.add_timed(name, wall, cpu, wall - nested[0],
                               cpu - nested[1])
            if after is not None:
                after(result, args, kwargs)
            return result

        timed.__wrapped__ = fn
        return timed

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "timed": {k: list(v) for k, v in self.timed.items()},
                "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "peaks": dict(self.peaks),
            }

    def merge(self, snap: dict, skip_prefix: str = "") -> None:
        """Fold another recorder's snapshot (e.g. a shard worker's) in."""
        for name, slot in snap.get("timed", {}).items():
            if skip_prefix and name.startswith(skip_prefix):
                continue
            self.add_timed(name, slot[_WALL], slot[_CPU], slot[_SELF_WALL],
                           slot[_SELF_CPU], calls=slot[_CALLS])
        for name, value in snap.get("counts", {}).items():
            if not (skip_prefix and name.startswith(skip_prefix)):
                self.count(name, value)


class _Patches:
    """Rebound attributes, restorable (the self-tests undo them)."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _relax_bytes(sow: np.ndarray, W: np.ndarray) -> int:
    """Computed (not measured) bytes one relaxation round touches: every
    lane streams an ``n x n`` weight plane and its ``(n,)`` state in, and
    writes the new state and the argmin out."""
    lanes = 1 if sow.ndim == 1 else int(sow.shape[0])
    n = int(sow.shape[-1])
    return lanes * n * n * W.itemsize + 3 * lanes * n * sow.itemsize


def install(rec: Recorder) -> _Patches:
    """Wrap every layer the benchmark reports on; returns the undo log."""
    import repro.engine._loop as loop_mod
    import repro.engine.compiled as compiled
    import repro.engine.costs as costs
    import repro.engine.fused as fused
    import repro.engine.shard as shard
    import repro.serve.admission as admission
    import repro.serve.service as service
    from repro.ppa.machine import PPAMachine

    patches = _Patches()

    # -- repro.engine: the relaxation kernel and the shared loop ---------
    def engine_loop(fn):
        def run(machine, W, target, relax, *args, **kwargs):
            def kernel(sow, Wm, maxint):
                rec.count("engine.relax_bytes", _relax_bytes(sow, Wm))
                return timed_relax(sow, Wm, maxint)

            timed_relax = rec.wrap("engine.relax", relax)
            result = timed_loop(machine, W, target, kernel, *args, **kwargs)
            iterations = np.atleast_1d(result.iterations)
            rec.count("engine.lanes", int(iterations.size))
            rec.count("engine.rounds", int(iterations.sum()))
            warm = kwargs.get("warm_sow")
            if warm is not None:
                seeded = np.atleast_2d(np.asarray(warm)) < result.maxint
                rec.count("engine.warm_lanes", int(seeded.any(axis=1).sum()))
            return result

        timed_loop = rec.wrap("engine.loop", fn)
        return run

    for tier in (compiled, fused):
        patches.set(tier, "run_analytic_mcp",
                    engine_loop(tier.run_analytic_mcp))
        patches.set(tier, "run_analytic_batched_mcp",
                    engine_loop(tier.run_analytic_batched_mcp))
    patches.set(loop_mod, "reconstruct_cold_mcp",
                rec.wrap("engine.reconstruct", loop_mod.reconstruct_cold_mcp))

    # -- repro.engine.costs: the cold cost probe -------------------------
    patches.set(costs, "_probe", rec.wrap("costs.probe", costs._probe))

    # -- repro.engine.shard: fork, shared memory, waiting ----------------
    def count_failures(result, args, kwargs):
        rec.count("shard.failures",
                  len(result.shard_report.get("failures", ())))

    patches.set(shard, "sharded_all_pairs",
                rec.wrap("shard.sweep", shard.sharded_all_pairs,
                         after=count_failures))
    patches.set(shard, "shared_memory", SimpleNamespace(
        SharedMemory=rec.wrap("shard.shm",
                              shard.shared_memory.SharedMemory)))
    patches.set(shard, "_release_blocks",
                rec.wrap("shard.shm", shard._release_blocks))
    supervisor = shard._ShardSupervisor
    patches.set(supervisor, "spawn", rec.wrap("shard.fork", supervisor.spawn))
    timed_wait = rec.wrap("shard.wait", supervisor.run)

    def wait(self):
        timed_wait(self)
        for report in self.reports.values():
            worker = report.pop(SHARD_KEY, None)
            if worker is not None:
                rec.merge(worker, skip_prefix="shard.")

    patches.set(supervisor, "run", wait)
    run_shard = shard._run_shard

    def worker_shard(task, attempt=0):
        rec.reset()  # this forked copy reports only its own shard
        report = run_shard(task, attempt)
        report[SHARD_KEY] = rec.snapshot()
        return report

    patches.set(shard, "_run_shard", worker_shard)

    # -- repro.ppa: bus primitives of the cycle simulator ----------------
    for name in ("broadcast", "bus_reduce", "bus_or", "shift", "global_or",
                 "lane_global_or"):
        patches.set(PPAMachine, name,
                    rec.wrap("cycle.bus", getattr(PPAMachine, name)))

    # -- repro.serve: machine factory, oracle, engine calls, delta, wire -
    patches.set(service, "default_machine_factory",
                rec.wrap("machine.create", service.default_machine_factory))
    for name in ("verify_mcp", "verify_apsp"):
        patches.set(service, name,
                    rec.wrap("oracle.verify", getattr(service, name)))
    for name in ("minimum_cost_path", "batched_minimum_cost_path",
                 "all_pairs_minimum_cost"):
        patches.set(service, name,
                    rec.wrap("serve.engine", getattr(service, name)))

    def count_dirty(response, args, kwargs):
        delta = response.result.get("delta", {})
        rec.count("delta.kept", delta.get("columns_kept", 0))
        rec.count("delta.dirtied", delta.get("columns_dirtied", 0))

    patches.set(service.PathQueryService, "_put_delta",
                rec.wrap("delta.apply", service.PathQueryService._put_delta,
                         after=count_dirty))
    patches.set(service, "decode_line",
                rec.wrap("wire.decode", service.decode_line))
    patches.set(service, "encode_message",
                rec.wrap("wire.encode", service.encode_message,
                         after=lambda line, a, k: rec.count(
                             "wire.reply_bytes", len(line))))

    # -- repro.serve.admission / reaper: coroutines, wall samples only ---
    acquire = admission.AdmissionController.acquire

    async def timed_acquire(self, weight=1):
        waiting = self.queue_depth > 0 or self.inflight >= self.max_inflight
        rec.peak("admission.queue", self.queue_depth + int(waiting))
        t0 = time.perf_counter()
        try:
            await acquire(self, weight)
        finally:
            rec.sample("admission.wait", time.perf_counter() - t0)

    patches.set(admission.AdmissionController, "acquire", timed_acquire)
    reap = service.PathQueryService._reap

    async def timed_reap(self, future):
        t0 = time.perf_counter()
        finished: list[float] = []
        future.add_done_callback(
            lambda _f: finished.append(time.perf_counter()))
        try:
            await reap(self, future)
        finally:
            t1 = time.perf_counter()
            rec.sample("serve.abandoned", (finished[0] if finished else t1)
                       - t0)
            rec.sample("serve.slot_hold", t1 - t0)

    patches.set(service.PathQueryService, "_reap", timed_reap)
    return patches
