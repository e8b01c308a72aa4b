"""Process-parallel APSP destination sharding over shared memory.

The all-pairs sweep is embarrassingly parallel across destinations: every
destination's MCP run reads the same weight matrix and writes disjoint
columns of ``dist``/``succ``. This module splits the destination range
into contiguous shards, runs one **supervised worker process** per shard
(``fork`` start method), and stitches the results back together
**deterministically** — output planes land in preallocated
:mod:`multiprocessing.shared_memory` blocks (each worker owns its own
columns, so there are no write conflicts), and the per-worker
machine-counter deltas are merged in shard order.

Failure handling
----------------
Workers are real processes and real processes die. The parent never
waits unboundedly on a shard: every worker runs under a deadline
(``shard_timeout``) and a liveness watch. A shard that crashes (nonzero
exit, e.g. SIGKILL), raises, or blows its deadline is **respawned and
retried exactly once**; if the retry fails too, the parent recomputes
that shard **inline** on its own machine, so the sweep always returns a
complete, correct :class:`~repro.core.apsp.APSPResult`. Every incident
is surfaced as a structured :class:`ShardFailure` in
``APSPResult.shard_report["failures"]`` — nothing hangs and nothing is
silently dropped. ``repro.serve`` wraps this layer in a circuit breaker
and a degradation ladder (see docs/robustness.md).

Shared-memory hygiene: the parent owns every segment and releases each
one individually on **every** exit path (success, worker failure, parent
exception, interpreter teardown ordering) — a failure while cleaning one
block cannot leak the others. Workers attach without ownership and close
in a ``finally``; a SIGKILLed worker's mappings are reclaimed by the
kernel, and the parent's unlink removes the name. The leak-check test in
``tests/engine/test_shard_failures.py`` enumerates ``/dev/shm`` around
crashing sweeps.

Counter semantics
-----------------
``APSPResult.counters`` (the serial-equivalent sum over destinations) is
**invariant across worker counts** and across failure/recovery paths:
each destination's lane ledger is the serial-equivalent cost of its own
run, regardless of which process (or the parent, after a fallback)
hosted it. ``APSPResult.machine_counters`` reports what the machines
actually accrued — merged worker deltas plus any inline-recovery work —
exactly as the inline batched sweep's ``machine_counters`` already
varies with ``lanes=``.

Cost vectors ride along at fork
-------------------------------
The analytic tiers replay counters from per-configuration cost vectors
(:mod:`repro.engine.costs`). The parent looks its vector up **once**
before forking, so every worker inherits the filled cache with the rest
of the parent's memory and *hits* on every lookup; a worker that missed
would only re-derive it from three constant-size replays (~20 ms). The
per-worker hit/miss tallies come back in ``APSPResult.shard_report``.

Eligibility
-----------
Sharding is gated separately from engine choice by
:func:`workers_block_reason`: anything that must observe the run from the
parent process — fault plans, the span tracer, the bus trace — cannot see
worker activity, and custom reduction routines / pre-batched machines /
``serial=True`` sweeps are out of scope. A blocked request **falls back
to the inline sweep** and records the reason in
``APSPResult.shard_report`` (the CLI surfaces it as a note), mirroring
the ``engine="auto"`` downgrade convention.

Chaos hooks
-----------
:func:`set_shard_chaos` arms deterministic failure injection — kill,
delay or raise inside chosen shards for a chosen number of attempts —
used by the service-level chaos harness (:mod:`repro.serve.chaos`) and
the failure tests. The hooks ship to workers inside the spawn payload,
so injection is exact (per shard, per attempt) rather than
probabilistic.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import signal
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.engine.costs import (
    cost_cache_stats,
    mcp_cost_vector,
    reset_cost_cache_stats,
)
from repro.engine.select import resolve_engine
from repro.errors import EngineError
from repro.verify.sanitizer import note_shm_create, note_shm_release

__all__ = [
    "ShardFailure",
    "workers_block_reason",
    "destination_shards",
    "sharded_all_pairs",
    "set_shard_chaos",
    "clear_shard_chaos",
]

#: Default per-shard deadline (seconds). Generous — a healthy shard of a
#: CI-sized sweep finishes in well under a second; the deadline exists so
#: a wedged or killed worker can never hang the parent. Override per call
#: (``shard_timeout=``) or process-wide via ``REPRO_SHARD_TIMEOUT``.
DEFAULT_SHARD_TIMEOUT = 120.0

#: Seconds the parent keeps draining the result queue after a worker
#: process exits, before declaring the shard crashed — covers the window
#: where the report is still in the queue's feeder pipe.
_EXIT_DRAIN_GRACE = 1.0

_POLL_INTERVAL = 0.02


@dataclass
class ShardFailure:
    """One failed attempt at running a destination shard in a worker.

    Appended (as a dict) to ``APSPResult.shard_report["failures"]``;
    ``recovered`` records how the sweep ultimately absorbed the failure —
    ``"respawn"`` (the one retry in a fresh worker succeeded) or
    ``"inline"`` (the parent recomputed the shard itself). It is never
    ``None`` on a returned result: one way or the other the shard's
    columns are complete and correct.
    """

    shard: int
    destinations: tuple[int, int]
    kind: str  #: ``"crash"`` | ``"timeout"`` | ``"error"``
    detail: str
    attempt: int
    recovered: str | None = None

    def to_dict(self) -> dict:
        return {
            "shard": int(self.shard),
            "destinations": [int(self.destinations[0]),
                             int(self.destinations[1])],
            "kind": self.kind,
            "detail": self.detail,
            "attempt": int(self.attempt),
            "recovered": self.recovered,
        }


def workers_block_reason(
    machine,
    *,
    serial: bool = False,
    word_parallel: bool = False,
    min_routine=None,
    selected_min_routine=None,
) -> str | None:
    """The first condition blocking a sharded (multi-process) sweep.

    Returns ``None`` when ``workers > 1`` can be honoured. The conditions
    are about *cross-process observability*, not engine tier — an
    eligible machine may shard the ``cycle`` engine just as well as the
    analytic tiers (the differential suite does exactly that).
    """
    from repro.ppc.reductions import ppa_min, ppa_selected_min

    if serial:
        return (
            "serial sweep requested (one destination per machine pass is "
            "inherently sequential)"
        )
    if machine.batch is not None:
        return (
            "machine is already batched (sharding drives its own lane "
            "views over an unbatched machine)"
        )
    if machine.fault_plan is not None:
        return (
            "fault plan attached (workers cannot report per-transaction "
            "faults back to the parent)"
        )
    if machine.telemetry.enabled:
        return (
            "span tracer enabled (worker spans cannot attach to the "
            "parent's trace tree)"
        )
    if machine.trace.enabled:
        return (
            "bus trace enabled (worker transactions cannot append to the "
            "parent's trace)"
        )
    if word_parallel:
        return (
            "word-parallel routines requested (the A7 ablation is a "
            "cycle-engine study; run it inline)"
        )
    if min_routine is not None and min_routine is not ppa_min:
        return "non-default min routine (not shipped to worker processes)"
    if (
        selected_min_routine is not None
        and selected_min_routine is not ppa_selected_min
    ):
        return (
            "non-default selected_min routine (not shipped to worker "
            "processes)"
        )
    if "fork" not in mp.get_all_start_methods():
        return "fork start method unavailable on this platform"
    if machine.n < 2:
        return "grid side < 2 (nothing to shard)"
    return None


def destination_shards(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` destination ranges, one per worker.

    ``workers`` is clamped to ``n``; ranges are as equal as
    :func:`numpy.array_split` makes them and cover ``range(n)`` exactly.
    """
    if workers < 1:
        raise EngineError(f"workers must be >= 1, got {workers}")
    pieces = np.array_split(np.arange(n), min(int(workers), n))
    return [(int(p[0]), int(p[-1]) + 1) for p in pieces if p.size]


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing shm block without taking ownership.

    The attach never talks to the resource tracker: the parent registered
    the block when it created it, and its ``unlink()`` unregisters it
    exactly once. That matters beyond bookkeeping. A worker forks from
    whichever parent thread runs the supervisor, and if another thread
    held the tracker's lock at that instant (a concurrent sweep creating
    its blocks), the child inherits the lock *held* with no thread left
    to release it: a tracker call would block until the shard deadline.

    ``track=False`` (Python >= 3.13) says so directly. Older Pythons
    register every attach, so there the registration is suppressed for
    the duration of the call — safe because only a forked worker attaches,
    and it runs this on its only thread.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` flag
        pass
    register = resource_tracker.register
    resource_tracker.register = _skip_registration
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


def _skip_registration(name: object, rtype: object) -> None:
    """Stand-in for ``resource_tracker.register`` during an attach."""


# ---------------------------------------------------------------------------
# Deterministic failure injection (chaos hooks)
# ---------------------------------------------------------------------------

#: Armed injection spec, shipped to workers inside the spawn payload.
#: Maps are ``{shard_index: attempts_affected}`` — an entry of 1 fails
#: the first attempt only (the respawn retry then succeeds), 2 fails both
#: worker attempts (forcing the inline fallback), and so on.
_chaos_spec: dict = {}


def set_shard_chaos(
    *,
    kill_shards: dict[int, int] | None = None,
    slow_shards: dict[int, int] | None = None,
    raise_shards: dict[int, int] | None = None,
    slow_seconds: float = 5.0,
) -> None:
    """Arm deterministic shard-failure injection (tests / chaos harness).

    ``kill_shards`` SIGKILLs the worker before it computes (a hard
    crash); ``slow_shards`` sleeps ``slow_seconds`` first (tripping the
    shard deadline when ``slow_seconds > shard_timeout``);
    ``raise_shards`` raises after the shared-memory attach (the
    worker-exception leak path). Injection is per (shard, attempt) and
    therefore exactly reproducible. Call :func:`clear_shard_chaos` to
    disarm — production code never arms this.
    """
    _chaos_spec.clear()
    _chaos_spec.update(
        {
            "kill": dict(kill_shards or {}),
            "slow": dict(slow_shards or {}),
            "raise": dict(raise_shards or {}),
            "slow_seconds": float(slow_seconds),
        }
    )


def clear_shard_chaos() -> None:
    """Disarm :func:`set_shard_chaos`."""
    _chaos_spec.clear()


def _chaos_hits(chaos: dict, key: str, shard: int, attempt: int) -> bool:
    return bool(chaos) and attempt < int(chaos.get(key, {}).get(shard, 0))


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

# Worker-side state installed at spawn (one dict per worker process;
# empty in the parent).
_worker_ctx: dict = {}


def _worker_init(payload: dict) -> None:
    """Install the task spec in a fresh worker.

    The cost-cache stats are reset so the per-worker hit/miss tallies
    returned to the parent measure only this worker's lookups; the cached
    vectors themselves are inherited from the parent at fork.
    """
    reset_cost_cache_stats()
    _worker_ctx.clear()
    _worker_ctx.update(payload)


def _run_shard(task: tuple[int, int, int], attempt: int = 0) -> dict:
    """Execute one destination shard inside a worker process.

    Opens the parent's shared-memory planes, runs the batched sweep for
    ``[start, stop)`` on a fresh machine, writes its columns, and returns
    the shard's machine-counter delta plus cost-cache stats.
    """
    from repro.core.batched import batched_minimum_cost_path
    from repro.ppa.machine import PPAMachine

    shard_index, start, stop = task
    ctx = _worker_ctx
    config = ctx["config"]
    n = config.n
    fields = ctx["fields"]
    chaos = ctx.get("chaos") or {}

    if _chaos_hits(chaos, "kill", shard_index, attempt):
        os.kill(os.getpid(), signal.SIGKILL)
    if _chaos_hits(chaos, "slow", shard_index, attempt):
        time.sleep(chaos["slow_seconds"])

    # Attach one-by-one into a list owned by the finally below: if the
    # k-th attach fails, the k-1 already-open handles must still be
    # closed (a comprehension would strand them — host-shm-attach-leak).
    handles: list[shared_memory.SharedMemory] = []
    try:
        for key in ("w", "dist", "succ", "iters", "lanes"):
            handles.append(_attach(ctx[key]))
        shm_w, shm_dist, shm_succ, shm_iters, shm_lanes = handles
        if _chaos_hits(chaos, "raise", shard_index, attempt):
            raise RuntimeError(
                f"injected worker exception (shard {shard_index}, "
                f"attempt {attempt})"
            )
        W = np.ndarray((n, n), dtype=np.int64, buffer=shm_w.buf)
        W.flags.writeable = False
        dist = np.ndarray((n, n), dtype=np.int64, buffer=shm_dist.buf)
        succ = np.ndarray((n, n), dtype=np.int64, buffer=shm_succ.buf)
        iters = np.ndarray(n, dtype=np.int64, buffer=shm_iters.buf)
        lane_planes = np.ndarray(
            (len(fields), n), dtype=np.int64, buffer=shm_lanes.buf
        )

        machine = PPAMachine(config)
        before = machine.counters.snapshot()
        lane_cap = ctx["lane_cap"]
        for chunk in range(start, stop, lane_cap):
            dests = np.arange(chunk, min(chunk + lane_cap, stop))
            view = machine.lanes(int(dests.size))
            res = batched_minimum_cost_path(
                view,
                W,
                dests,
                engine=ctx["engine"],
                zero_diagonal="require",
                max_iterations=ctx["max_iterations"],
            )
            dist[:, dests] = res.sow.T
            succ[:, dests] = res.ptn.T
            iters[dests] = res.iterations
            for row, name in enumerate(fields):
                lane_planes[row, dests] = res.lane_counters[name]
        return {
            "shard": shard_index,
            "destinations": [start, stop],
            "attempt": attempt,
            "machine_counters": machine.counters.diff(before),
            "cost_cache": cost_cache_stats(),
        }
    finally:
        for shm in handles:
            try:
                shm.close()
            except OSError:  # pragma: no cover - defensive
                pass


def _worker_main(payload: dict, task: tuple[int, int, int], attempt: int,
                 result_queue) -> None:
    """Worker process entry point: run one shard, report through the queue.

    Exceptions are converted into an ``error`` report so the parent can
    distinguish a clean Python failure from a hard crash (nonzero exit
    with no report).
    """
    _worker_init(payload)
    try:
        report = _run_shard(task, attempt)
    except BaseException:
        report = {
            "shard": task[0],
            "destinations": [task[1], task[2]],
            "attempt": attempt,
            "error": traceback.format_exc(limit=8),
        }
    result_queue.put(report)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _ShardSupervisor:
    """Run every shard under a deadline; respawn each failed shard once.

    Tracks one live process per in-flight shard, drains the shared result
    queue, and classifies failures: ``error`` (worker raised; it reported
    itself), ``crash`` (worker gone with no report — SIGKILL, OOM-kill,
    segfault) and ``timeout`` (deadline blown; the worker is killed). A
    shard failing its respawn attempt too is handed back in
    ``needs_inline`` for the parent to recompute.
    """

    def __init__(self, ctx, payload: dict, timeout: float):
        self._ctx = ctx
        self._payload = payload
        self._timeout = timeout
        self._queue = ctx.Queue()
        self._live: dict[int, dict] = {}  # shard -> {proc, deadline, ...}
        self.reports: dict[int, dict] = {}
        self.failures: list[ShardFailure] = []
        self.needs_inline: list[tuple[int, int, int]] = []

    def spawn(self, task: tuple[int, int, int], attempt: int = 0) -> None:
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._payload, task, attempt, self._queue),
            daemon=True,
        )
        proc.start()
        self._live[task[0]] = {
            "proc": proc,
            "task": task,
            "attempt": attempt,
            "deadline": time.monotonic() + self._timeout,
            "exit_seen": None,
        }

    def _fail(self, shard: int, kind: str, detail: str) -> None:
        entry = self._live.pop(shard)
        proc = entry["proc"]
        if kind == "error":
            # The worker reported itself and is exiting. Its queue feeder
            # thread releases the queue's process-shared write lock just
            # after the report's last byte lands; killing it in that window
            # would strand the lock and block every later report.
            proc.join(_EXIT_DRAIN_GRACE)
        if proc.is_alive():
            proc.kill()
        proc.join()
        failure = ShardFailure(
            shard=shard,
            destinations=(entry["task"][1], entry["task"][2]),
            kind=kind,
            detail=detail,
            attempt=entry["attempt"],
        )
        self.failures.append(failure)
        if entry["attempt"] == 0:
            failure.recovered = "respawn"  # provisional; see run()
            self.spawn(entry["task"], attempt=1)
        else:
            failure.recovered = "inline"
            self.needs_inline.append(entry["task"])

    def _absorb(self, report: dict) -> None:
        shard = report["shard"]
        if "error" in report:
            if shard in self._live:
                self._fail(shard, "error", report["error"].strip())
            return
        entry = self._live.pop(shard, None)
        if entry is not None:
            entry["proc"].join()
        self.reports[shard] = report

    def run(self) -> None:
        while self._live:
            try:
                report = self._queue.get(timeout=_POLL_INTERVAL)
            except queue_mod.Empty:
                report = None
            if report is not None:
                self._absorb(report)
                continue
            now = time.monotonic()
            for shard in list(self._live):
                entry = self._live[shard]
                proc = entry["proc"]
                if not proc.is_alive():
                    # Exited without a report reaching us yet: give the
                    # queue feeder a short grace, then call it a crash.
                    if entry["exit_seen"] is None:
                        entry["exit_seen"] = now
                    elif now - entry["exit_seen"] > _EXIT_DRAIN_GRACE:
                        self._fail(
                            shard,
                            "crash",
                            f"worker exited with code {proc.exitcode} "
                            "before reporting",
                        )
                elif now > entry["deadline"]:
                    self._fail(
                        shard,
                        "timeout",
                        f"shard exceeded its {self._timeout:.1f}s deadline",
                    )
        # A first-attempt failure is only truly "respawn"-recovered if the
        # retry reported success; otherwise the inline record supersedes.
        recovered_shards = set(self.reports)
        for failure in self.failures:
            if failure.recovered == "respawn" and (
                failure.shard not in recovered_shards
            ):
                failure.recovered = "inline"

    def shutdown(self) -> None:
        """Kill anything still alive and release the queue (error paths)."""
        for entry in self._live.values():
            proc = entry["proc"]
            if proc.is_alive():
                proc.kill()
            proc.join()
        self._live.clear()
        self._queue.close()
        self._queue.join_thread()


def _release_blocks(blocks: list[shared_memory.SharedMemory]) -> None:
    """Close + unlink every segment, best-effort and individually.

    A failure releasing one block (already-closed buffer, racing unlink)
    must never leak the rest — each step runs in its own guard. This is
    the single cleanup path for every exit from :func:`sharded_all_pairs`.
    """
    for shm in blocks:
        try:
            shm.close()
        except OSError:  # pragma: no cover - defensive
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - racing cleanup
            pass
        except OSError:  # pragma: no cover - defensive
            pass
        note_shm_release(shm.name)
    blocks.clear()


def _default_shard_timeout() -> float:
    try:
        return float(os.environ.get("REPRO_SHARD_TIMEOUT", ""))
    except ValueError:
        return DEFAULT_SHARD_TIMEOUT


def sharded_all_pairs(
    machine,
    W,
    *,
    workers: int,
    lanes: int | None = None,
    engine: str = "auto",
    zero_diagonal: str = "require",
    max_iterations: int | None = None,
    shard_timeout: float | None = None,
):
    """All-pairs minimum cost via destination shards in worker processes.

    Callers reach this through
    :func:`repro.core.apsp.all_pairs_minimum_cost` with ``workers > 1``
    after :func:`workers_block_reason` cleared the machine; invoking it
    directly on an ineligible machine raises
    :class:`~repro.errors.EngineError`.

    ``shard_timeout`` bounds each worker attempt (default
    :data:`DEFAULT_SHARD_TIMEOUT`, overridable via the
    ``REPRO_SHARD_TIMEOUT`` environment variable). Worker failures never
    propagate as hangs or missing columns: each failed shard is respawned
    once and, failing that, recomputed inline by the parent — the
    incidents are recorded as :class:`ShardFailure` entries in
    ``shard_report["failures"]``.

    Returns the same :class:`~repro.core.apsp.APSPResult` as the inline
    sweep — ``dist``/``succ``/``iterations``, the serial-equivalent
    ``counters`` and per-destination ``lane_counters`` bit-identical to
    every other engine/worker-count combination — plus a ``shard_report``
    describing the shard layout, per-worker cache stats and any absorbed
    failures. The parent machine is charged the merged worker deltas (and
    any inline-recovery work it ran itself), so its ``machine_counters``
    stay a faithful account of the sweep.
    """
    from repro.core.apsp import APSPResult
    from repro.core.graph import normalize_weights

    blocked = workers_block_reason(machine)
    if blocked is not None:
        raise EngineError(
            f"workers={workers} unavailable: {blocked}; use "
            "all_pairs_minimum_cost(), which falls back to the inline "
            "sweep transparently"
        )

    n = machine.n
    Wm = np.ascontiguousarray(
        normalize_weights(W, machine, zero_diagonal=zero_diagonal),
        dtype=np.int64,
    )
    # Resolve once in the parent so every worker runs the same concrete
    # tier ("auto" would resolve identically on each fresh worker machine,
    # but forwarding the name makes the report unambiguous).
    choice = resolve_engine(machine, engine)
    if choice.analytic:
        mcp_cost_vector(machine.config)  # derive once; workers inherit it

    timeout = (
        float(shard_timeout) if shard_timeout is not None
        else _default_shard_timeout()
    )
    if timeout <= 0:
        raise EngineError(f"shard_timeout must be > 0, got {timeout}")

    shards = destination_shards(n, workers)
    lane_cap = n if lanes is None else max(1, min(int(lanes), n))
    fields = tuple(type(machine.counters).field_names())

    blocks: list[shared_memory.SharedMemory] = []

    def _alloc(shape) -> tuple[str, np.ndarray]:
        size = int(np.prod(shape)) * 8
        shm = shared_memory.SharedMemory(create=True, size=max(size, 8))
        blocks.append(shm)
        note_shm_create(shm.name, "sharded_all_pairs")
        return shm.name, np.ndarray(shape, dtype=np.int64, buffer=shm.buf)

    machine_before = machine.counters.snapshot()
    supervisor = None
    try:
        w_name, w_arr = _alloc((n, n))
        w_arr[:] = Wm
        dist_name, dist_arr = _alloc((n, n))
        succ_name, succ_arr = _alloc((n, n))
        iters_name, iters_arr = _alloc((n,))
        lanes_name, lanes_arr = _alloc((len(fields), n))
        for arr in (dist_arr, succ_arr, iters_arr, lanes_arr):
            arr[:] = 0

        payload = {
            "config": machine.config,
            "engine": choice.name,
            "lane_cap": lane_cap,
            "max_iterations": max_iterations,
            "fields": fields,
            "chaos": dict(_chaos_spec) if _chaos_spec else None,
            "w": w_name,
            "dist": dist_name,
            "succ": succ_name,
            "iters": iters_name,
            "lanes": lanes_name,
        }
        ctx = mp.get_context("fork")
        supervisor = _ShardSupervisor(ctx, payload, timeout)
        for i, (start, stop) in enumerate(shards):
            supervisor.spawn((i, start, stop))
        supervisor.run()

        # Shards that failed both worker attempts: recompute inline on the
        # parent machine, writing the same shared planes. Correctness and
        # the serial-equivalent ledgers are engine/host-invariant, so the
        # recovered columns are bit-identical to a healthy worker's.
        for shard_index, start, stop in sorted(supervisor.needs_inline):
            from repro.core.batched import batched_minimum_cost_path

            for chunk in range(start, stop, lane_cap):
                dests = np.arange(chunk, min(chunk + lane_cap, stop))
                view = machine.lanes(int(dests.size))
                res = batched_minimum_cost_path(
                    view,
                    Wm,
                    dests,
                    engine=choice.name,
                    zero_diagonal="require",
                    max_iterations=max_iterations,
                )
                dist_arr[:, dests] = res.sow.T
                succ_arr[:, dests] = res.ptn.T
                iters_arr[dests] = res.iterations
                for row, name in enumerate(fields):
                    lanes_arr[row, dests] = res.lane_counters[name]

        reports = sorted(
            supervisor.reports.values(), key=lambda r: r["shard"]
        )  # deterministic merge order
        merged: dict[str, int] = {name: 0 for name in fields}
        for report in reports:
            for name, value in report["machine_counters"].items():
                merged[name] += int(value)
        machine.apply_counter_delta(merged)

        lane_deltas = {
            name: lanes_arr[row].copy() for row, name in enumerate(fields)
        }
        from repro.ppa.counters import LaneCounters

        worker_stats = [
            {
                "shard": r["shard"],
                "destinations": r["destinations"],
                "attempt": r.get("attempt", 0),
                "cost_cache": r["cost_cache"],
            }
            for r in reports
        ]
        for shard_index, start, stop in sorted(supervisor.needs_inline):
            worker_stats.append(
                {
                    "shard": shard_index,
                    "destinations": [start, stop],
                    "recovered": "inline",
                }
            )
        worker_stats.sort(key=lambda s: s["shard"])

        report_out: dict = {
            "requested_workers": int(workers),
            "workers": len(shards),
            "engine": choice.name,
            "lane_cap": lane_cap,
            "shard_timeout": timeout,
            "shards": [list(s) for s in shards],
            "worker_stats": worker_stats,
        }
        if supervisor.failures:
            report_out["failures"] = [
                f.to_dict() for f in supervisor.failures
            ]

        return APSPResult(
            dist=dist_arr.copy(),
            succ=succ_arr.copy(),
            iterations=iters_arr.copy(),
            maxint=machine.maxint,
            counters=LaneCounters.total_of(lane_deltas),
            machine_counters=machine.counters.diff(machine_before),
            lane_counters=lane_deltas,
            shard_report=report_out,
        )
    finally:
        if supervisor is not None:
            supervisor.shutdown()
        _release_blocks(blocks)
