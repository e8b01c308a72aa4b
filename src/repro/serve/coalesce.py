"""Request coalescing: lane-batched micro-batching + single-flight dedup.

The paper's one trick is amortising a relaxation round across an entire
processor array; PR 2 extended the same amortisation across *query
lanes* (batched APSP). This module applies it to the serving tier's
request stream: column queries against the same graph version that
become runnable in the same event-loop turn — the lines of one socket
read, a ``gather`` burst — join one pending batch, which closes at the
end of that turn (or at once, when ``max_lanes`` distinct destinations
are waiting) and is dispatched as **one** ``batched_minimum_cost_path``
run, each lane's column fanned back to its waiting requests. A lone
request is dispatched on the next turn: no timer adds latency to it.
Because batched lanes are bit-identical to serial runs (pinned since
PR 2), coalescing changes *only* the throughput — every answer, digest
and cache entry is byte-for-byte what the serial path would have
produced.

Single-flight deduplication rides on the same bookkeeping: all waiters
for one ``(graph, version, dest)`` share one per-destination future, so
identical in-flight requests — the pathological hot-key shape that
races past an LRU — cost one lane total, whether they arrived in the
same turn or while the batch was already computing. Every waiter
receives the *same* payload object: bit-identical fan-out is
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
    #: batches closed at the end of the event-loop turn that opened
    #: them (or by ``drain``).
    flushed_turn: int = 0
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
            self.flushed_turn += 1
        key = str(lanes)
        self.lane_fill[key] = self.lane_fill.get(key, 0) + 1

    def to_dict(self) -> dict:
        return {
            "batches": self.batches,
            "requests": self.requests,
            "coalesced_requests": self.coalesced_requests,
            "single_flight_hits": self.single_flight_hits,
            "flushed_full": self.flushed_full,
            "flushed_turn": self.flushed_turn,
            "dispatch_errors": self.dispatch_errors,
            "lane_fill": dict(sorted(self.lane_fill.items(),
                                     key=lambda kv: int(kv[0]))),
        }


class _PendingBatch:
    """One graph-version batch still collecting destinations."""

    __slots__ = ("graph", "waiters", "deadline_at", "sizes")

    def __init__(self, graph: Any):
        self.graph = graph
        #: dest -> shared per-destination future
        self.waiters: dict[int, asyncio.Future] = {}
        self.deadline_at = 0.0
        #: dest -> number of requests sharing that future (for stats)
        self.sizes: dict[int, int] = {}


class ColumnCoalescer:
    """Per-graph-version micro-batching queue with single-flight dedup."""

    def __init__(
        self,
        dispatch: Callable[[Any, dict[int, asyncio.Future], float],
                           Awaitable[None]],
        *,
        max_lanes: int = 32,
    ):
        if max_lanes < 1:
            raise ValueError(f"max_lanes must be >= 1, got {max_lanes}")
        self._dispatch = dispatch
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

        Joins the pending batch for ``(g.name, g.version)`` — opening
        one, to close at the end of this event-loop turn, if absent — or
        an identical unresolved computation, in which case
        ``single_flight`` is True and the future is the one the earlier
        request waits on.
        """
        if self._closed:
            raise RuntimeError("coalescer is closed")
        self.stats.requests += 1
        flight_key = (g.name, g.version, dest)
        existing = self._inflight.get(flight_key)
        if existing is not None and not existing.done():
            self.stats.single_flight_hits += 1
            batch = self._pending.get((g.name, g.version))
            if batch is not None and dest in batch.waiters:
                # still collecting: extend the batch deadline and tally
                batch.deadline_at = max(batch.deadline_at, deadline_at)
                batch.sizes[dest] = batch.sizes.get(dest, 1) + 1
            return existing, True

        loop = asyncio.get_running_loop()
        key = (g.name, g.version)
        batch = self._pending.get(key)
        if batch is None:
            batch = _PendingBatch(g)
            self._pending[key] = batch
            loop.call_soon(self._close_turn, key, batch)

        future: asyncio.Future = loop.create_future()
        batch.waiters[dest] = future
        batch.sizes[dest] = 1
        batch.deadline_at = max(batch.deadline_at, deadline_at)
        self._inflight[flight_key] = future
        future.add_done_callback(
            functools.partial(self._forget_flight, flight_key)
        )

        if len(batch.waiters) >= self.max_lanes:
            self._flush(key, "full")
        return future, False

    def _forget_flight(self, key: tuple, future: asyncio.Future) -> None:
        # a fresh flight may already hold the key (see join)
        if self._inflight.get(key) is future:
            del self._inflight[key]

    # -- flushing --------------------------------------------------------

    def _close_turn(self, key: tuple, batch: _PendingBatch) -> None:
        """End-of-turn close of *batch*, unless it already left as full
        (a later batch under the same key has its own close)."""
        if self._pending.get(key) is batch:
            self._flush(key, "turn")

    def _flush(self, key: tuple, reason: str) -> None:
        batch = self._pending.pop(key, None)
        if batch is None:
            return
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
            self._flush(key, "turn")
        while self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)
        self._closed = False

    def snapshot(self) -> dict:
        return {
            **self.stats.to_dict(),
            "pending_batches": len(self._pending),
            "inflight_columns": len(self._inflight),
            "max_lanes": self.max_lanes,
        }
