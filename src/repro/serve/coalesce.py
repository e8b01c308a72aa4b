"""Request coalescing: lane-batched micro-batching + single-flight dedup.

The paper's one trick is amortising a relaxation round across an entire
processor array; PR 2 extended the same amortisation across *query
lanes* (batched APSP). This module applies it to the serving tier's
request stream: concurrent column queries against the same graph
version are collected for a short window (``coalesce_window_ms``, or
until ``max_lanes`` distinct destinations are waiting) and dispatched
as **one** ``batched_minimum_cost_path`` run, each lane's column fanned
back to its waiting requests. Because batched lanes are bit-identical
to serial runs (pinned since PR 2), coalescing changes *only* the
throughput — every answer, digest and cache entry is byte-for-byte what
the serial path would have produced.

Single-flight deduplication rides on the same bookkeeping: all waiters
for one ``(graph, version, dest)`` share one per-destination future, so
identical in-flight requests — the pathological hot-key shape that
races past an LRU — cost one lane total, whether they arrived in the
same collection window or while the batch was already computing. Every
waiter receives the *same* payload object: bit-identical fan-out is
structural, not a property to test for.

The coalescer owns collection, dedup and statistics only; admission,
the degradation-ladder retry loop and the actual engine dispatch stay
in :class:`~repro.serve.service.PathQueryService` (injected here as the
``dispatch`` coroutine). All methods run on the event loop.

Waiter futures resolve to a small outcome dict: ``{"status": "ok",
"payload": {...}, ...}`` with the column payload (``sow``/``ptn``/
``iterations``/``engine``) beside ``degraded``/``batched_with``/
``attempts``/``queued_ms``, or ``{"status": "shed"|"deadline"|"error",
...}`` when the whole batch failed. Per-request deadlines stay
per-request: a waiter that cannot wait any longer abandons its future
(the batch keeps computing for the others and still warms the cache).
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

__all__ = ["ColumnCoalescer", "CoalesceStats"]


@dataclass
class CoalesceStats:
    """Monotonic coalescer tallies (exported via the ``stats`` op)."""

    #: batches dispatched (each consumes one admission slot).
    batches: int = 0
    #: column requests that entered the coalescer.
    requests: int = 0
    #: requests that shared a batch with at least one other request.
    coalesced_requests: int = 0
    #: requests answered by an already-pending identical (graph,
    #: version, dest) computation instead of a new lane.
    single_flight_hits: int = 0
    #: batches flushed because they reached ``max_lanes``.
    flushed_full: int = 0
    #: batches flushed by the collection-window timer.
    flushed_window: int = 0
    #: dispatch tasks that died with an unexpected exception (their
    #: waiters are resolved with an error outcome, never stranded).
    dispatch_errors: int = 0
    #: lane-fill histogram: batch size (distinct destinations) -> count.
    lane_fill: dict = field(default_factory=dict)

    def record_flush(self, lanes: int, reason: str) -> None:
        self.batches += 1
        if reason == "full":
            self.flushed_full += 1
        else:
            self.flushed_window += 1
        key = str(lanes)
        self.lane_fill[key] = self.lane_fill.get(key, 0) + 1

    def to_dict(self) -> dict:
        return {
            "batches": self.batches,
            "requests": self.requests,
            "coalesced_requests": self.coalesced_requests,
            "single_flight_hits": self.single_flight_hits,
            "flushed_full": self.flushed_full,
            "flushed_window": self.flushed_window,
            "dispatch_errors": self.dispatch_errors,
            "lane_fill": dict(sorted(self.lane_fill.items(),
                                     key=lambda kv: int(kv[0]))),
        }


class _PendingBatch:
    """One graph-version batch still collecting destinations."""

    __slots__ = ("graph", "waiters", "deadline_at", "timer", "sizes")

    def __init__(self, graph: Any):
        self.graph = graph
        #: dest -> shared per-destination future
        self.waiters: dict[int, asyncio.Future] = {}
        self.deadline_at = 0.0
        self.timer: asyncio.Task | None = None
        #: dest -> number of requests sharing that future (for stats)
        self.sizes: dict[int, int] = {}


class ColumnCoalescer:
    """Per-graph-version micro-batching queue with single-flight dedup."""

    def __init__(
        self,
        dispatch: Callable[[Any, dict[int, asyncio.Future], float],
                           Awaitable[None]],
        *,
        window_ms: float = 2.0,
        max_lanes: int = 32,
    ):
        if window_ms < 0:
            raise ValueError(f"window_ms must be >= 0, got {window_ms}")
        if max_lanes < 1:
            raise ValueError(f"max_lanes must be >= 1, got {max_lanes}")
        self._dispatch = dispatch
        self.window_ms = float(window_ms)
        self.max_lanes = int(max_lanes)
        self.stats = CoalesceStats()
        self._pending: dict[tuple, _PendingBatch] = {}
        #: (name, version, dest) -> future, from collection until resolved
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._tasks: set[asyncio.Task] = set()
        self._closed = False

    # -- joining ---------------------------------------------------------

    def join(self, g: Any, dest: int, deadline_at: float
             ) -> tuple[asyncio.Future, bool]:
        """``(future, single_flight)`` answering ``dest`` on graph *g*.

        Joins the pending batch for ``(g.name, g.version)`` (creating
        one, and its window timer, if absent), or an identical
        already-in-flight computation — in which case ``single_flight``
        is True and the future is the one the earlier request waits on.
        """
        if self._closed:
            raise RuntimeError("coalescer is closed")
        self.stats.requests += 1
        flight_key = (g.name, g.version, dest)
        existing = self._inflight.get(flight_key)
        if existing is not None:
            self.stats.single_flight_hits += 1
            batch = self._pending.get((g.name, g.version))
            if batch is not None and dest in batch.waiters:
                # still collecting: extend the batch deadline and tally
                batch.deadline_at = max(batch.deadline_at, deadline_at)
                batch.sizes[dest] = batch.sizes.get(dest, 1) + 1
            return existing, True

        key = (g.name, g.version)
        batch = self._pending.get(key)
        if batch is None:
            batch = _PendingBatch(g)
            self._pending[key] = batch
            if self.window_ms > 0:
                batch.timer = asyncio.ensure_future(
                    self._window_flush(key)
                )

        future: asyncio.Future = asyncio.get_running_loop().create_future()
        batch.waiters[dest] = future
        batch.sizes[dest] = 1
        batch.deadline_at = max(batch.deadline_at, deadline_at)
        self._inflight[flight_key] = future
        future.add_done_callback(
            lambda _f, k=flight_key: self._inflight.pop(k, None)
        )

        if len(batch.waiters) >= self.max_lanes or self.window_ms == 0:
            self._flush(key, "full")
        return future, False

    # -- flushing --------------------------------------------------------

    async def _window_flush(self, key: tuple) -> None:
        try:
            await asyncio.sleep(self.window_ms / 1e3)
        except asyncio.CancelledError:
            return
        self._flush(key, "window", from_timer=True)

    def _flush(self, key: tuple, reason: str, *,
               from_timer: bool = False) -> None:
        batch = self._pending.pop(key, None)
        if batch is None:
            return
        if batch.timer is not None and not from_timer:
            batch.timer.cancel()
        lanes = len(batch.waiters)
        self.stats.record_flush(lanes, reason)
        riders = sum(batch.sizes.values())
        if lanes < riders or lanes > 1:
            self.stats.coalesced_requests += riders
        task = asyncio.ensure_future(
            self._dispatch(batch.graph, batch.waiters, batch.deadline_at)
        )
        self._tasks.add(task)
        task.add_done_callback(
            functools.partial(self._dispatch_done, batch.waiters)
        )

    def _dispatch_done(self, waiters: dict[int, asyncio.Future],
                       task: "asyncio.Task") -> None:
        """Consume the dispatch task's outcome (host-orphan-task).

        A dispatch that dies with an unexpected exception (or is
        cancelled mid-shutdown) must not strand its waiters on futures
        nobody will ever resolve: every still-pending waiter gets an
        error outcome and the failure is tallied.
        """
        self._tasks.discard(task)
        if task.cancelled():
            detail = "batch dispatch cancelled"
        else:
            exc = task.exception()
            if exc is None:
                return
            detail = f"batch dispatch failed: {exc!r}"
        self.stats.dispatch_errors += 1
        for future in waiters.values():
            if not future.done():
                future.set_result({"status": "error", "error": detail})

    # -- lifecycle -------------------------------------------------------

    async def drain(self) -> None:
        """Flush everything pending and await all in-flight batches."""
        self._closed = True
        for key in list(self._pending):
            self._flush(key, "window")
        while self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)
        self._closed = False

    def snapshot(self) -> dict:
        return {
            **self.stats.to_dict(),
            "pending_batches": len(self._pending),
            "inflight_columns": len(self._inflight),
            "window_ms": self.window_ms,
            "max_lanes": self.max_lanes,
        }
