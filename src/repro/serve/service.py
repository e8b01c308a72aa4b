"""The path-query service: request lifecycle, retries, degradation.

:class:`PathQueryService` is the robustness tentpole in one object — a
stdlib-``asyncio`` front end over the execution engines that never
returns an unverified answer. Every query that misses the cache is a
batch of destination lanes — a coalesced column batch, an uncoalesced
column as a one-lane batch dispatched at once, an APSP plane as a batch
of every destination — and every batch takes the same path::

    point / dest --coalesce on---> ColumnCoalescer (turn, single-flight)
         |                               | one batch per loop turn
         +--------coalesce off----+      |
    apsp -------------------------+------+
                                  v
    admission.acquire()              bounded queue or synchronous shed
      +-- attempt loop ---------------------------------------------+
      |  ladder.rung_for()           engine / workers / lanes       |
      |  plan(rung)                  the attempt's work (+ breaker) |
      |  run in compute thread       lane-chunked column solver, or |
      |                              the (sharded) APSP sweep       |
      |  oracle.verify_*()           Bellman-fixpoint proof         |
      |  fail -> record_failure, backoff (jittered), rung below     |
      +-------------------------------------------------------------+
    verified answer (possibly stamped ``degraded``) or
    ``deadline`` / ``error`` — never a wrong result

Deadlines cover the whole lifecycle including queueing. A compute that
outlives its deadline is *abandoned*: the client gets the ``deadline``
response immediately, while a reaper task holds the admission slot until
the thread actually finishes — concurrency accounting never lies, so
``max_inflight`` bounds real CPU work even under timeout storms.

The machine factory is injectable; the chaos harness uses it to hand the
service fault-plan-carrying machines (PR 3) and to trip worker chaos.
All service state (ladder, breaker, caches, counters) is touched only on
the event loop; compute threads receive immutable graphs and return
plain results. Each graph version is prepared once, when ``put_graph``
or a delta creates it: its normalised plane with the compiled tier's
edge list, and the oracle's own CSR of the same plane, all read-only
and shared by every compute thread, so a column miss does O(m) array
work around the engine's rounds.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.apsp import all_pairs_minimum_cost
from repro.core.batched import batched_minimum_cost_path
# no caller here (a column is a one-lane batch); perfbench/layers.py rebinds it
from repro.core.mcp import minimum_cost_path  # noqa: F401
from repro.engine.compiled import PreparedPlane
from repro.engine.costs import cost_cache_size, cost_cache_stats
from repro.engine.select import fused_block_reason
from repro.errors import ConfigurationError, GraphError, ReproError
from repro.ppa.machine import PPAMachine
from repro.ppa.segments import plan_cache_sizes, plan_cache_stats
from repro.ppa.topology import PPAConfig
from repro.resilience import BackoffPolicy, ResilienceConfig, ResilientExecutor
from repro.verify.sanitizer import (
    HostSanitizer,
    LeakCensus,
    SanitizerViolation,
    sanitize_from_env,
)
from repro.serve.admission import AdmissionController, QueueFull
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.coalesce import ColumnCoalescer
from repro.serve.degrade import DegradationLadder, Rung, RUNGS
from repro.serve.delta import (
    apply_edge_delta,
    decode_edges,
    dirty_destinations,
)
from repro.serve.oracle import OracleCSR, oracle_csr, verify_apsp, verify_mcp
from repro.serve.protocol import PROTOCOL_VERSION, MAX_LINE_BYTES, Request, \
    Response, decode_line, encode_message
from repro.telemetry.profile import RunProfile
from repro.telemetry.spans import Span

__all__ = ["ServiceConfig", "PathQueryService", "default_machine_factory"]


def default_machine_factory(n: int, word_bits: int) -> PPAMachine:
    """A clean (fault-free) machine of the requested geometry."""
    return PPAMachine(PPAConfig(n=n, word_bits=word_bits))


@dataclass
class ServiceConfig:
    """Tunables for one :class:`PathQueryService`."""

    #: requests computing concurrently (also the compute-thread count).
    max_inflight: int = 8
    #: admission wait-queue bound; beyond it requests are shed.
    max_queue: int = 256
    #: deadline applied when a request carries none (milliseconds).
    default_deadline_ms: float = 30_000.0
    #: worker processes for sharded APSP at the top ladder rung.
    workers: int = 2
    #: per-shard-attempt deadline forwarded to the worker pool.
    shard_timeout: float = 30.0
    #: retry schedule for failed attempts (shared with the shard layer).
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    #: breaker knobs for the worker pool.
    breaker_failure_threshold: int = 3
    breaker_cooldown_s: float = 2.0
    #: consecutive verified answers before the ladder steps back up.
    recovery_successes: int = 8
    #: LRU capacities (entries, not bytes).
    column_cache: int = 2048
    apsp_cache: int = 8
    #: coalesce column requests into lane-batched engine runs
    #: (:mod:`repro.serve.coalesce`): requests on one graph version that
    #: become runnable in the same event-loop turn share one run, closed
    #: at the end of that turn, and identical requests share one flight.
    #: Off sends each request through the same admission step and
    #: attempt loop as a one-lane batch: no shared runs, no single-flight
    #: (the benchmark's control arm).
    coalesce: bool = True
    #: distinct destinations per batch; a full batch dispatches at once.
    #: The degradation rung may chunk a batch into narrower engine runs
    #: (:meth:`repro.serve.degrade.Rung.coalesce_width`).
    max_lanes: int = 32
    #: spare PEs given to the resilient bottom rung (array n = problem
    #: n + spares, quarantine headroom for bus-fault recovery).
    resilient_spares: int = 2
    #: resilient-executor policy for the bottom rung.
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    #: seed for the retry-jitter RNG; with the graph version and the
    #: destinations it fixes every backoff delay, in any process.
    seed: int = 0
    #: per-request telemetry spans kept for profile export.
    keep_request_spans: int = 256
    #: breaker/monotonic clock (injectable for tests).
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.default_deadline_ms <= 0:
            raise ConfigurationError(
                "default_deadline_ms must be > 0, got "
                f"{self.default_deadline_ms}"
            )
        if self.resilient_spares < 0:
            raise ConfigurationError(
                f"resilient_spares must be >= 0, got {self.resilient_spares}"
            )
        if self.max_lanes < 1:
            raise ConfigurationError(
                f"max_lanes must be >= 1, got {self.max_lanes}"
            )


@dataclass(frozen=True)
class _Graph:
    """One version of a registered named graph, immutable.

    Built once per version (:meth:`_Graph.build`): ``plane`` holds the
    normalised read-only int64 grid (``maxint`` sentinels) and the
    compiled tier's edge list, which the engines take as they are;
    ``csr`` is the oracle's own CSR of the same grid, derived from it
    by :func:`~repro.serve.oracle.oracle_csr`.
    """

    name: str
    plane: PreparedPlane
    csr: OracleCSR
    word_bits: int
    version: int
    digest: str

    @classmethod
    def build(cls, name: str, W, word_bits: int, version: int, *,
              zero_diagonal: str = "require") -> "_Graph":
        probe = PPAMachine(PPAConfig(n=int(np.shape(W)[0]),
                                     word_bits=word_bits))
        plane = PreparedPlane(W, probe, zero_diagonal=zero_diagonal)
        digest = hashlib.blake2b(
            plane.W.tobytes() + bytes([word_bits]), digest_size=16
        ).hexdigest()
        return cls(name=name, plane=plane,
                   csr=oracle_csr(plane.W, plane.maxint),
                   word_bits=word_bits, version=version, digest=digest)

    @property
    def W(self) -> np.ndarray:
        return self.plane.W

    @property
    def n(self) -> int:
        return int(self.plane.W.shape[0])

    @property
    def maxint(self) -> int:
        return self.plane.maxint


class _AnswerRejected(ReproError):
    """A computed answer failed Bellman-fixpoint verification."""

    def __init__(self, problems: list[str]):
        super().__init__(
            "answer failed verification: " + "; ".join(problems[:3])
        )
        self.problems = problems


class _ComputeFailed(ReproError):
    """An attempt failed before producing an answer (crash, fault,
    resilience budget exhausted...)."""


@dataclass
class _Attempt:
    """One attempt's work, planned on the event loop for its rung."""

    #: the compute-thread callable; returns the verified payload.
    work: Callable[[], Any]
    #: APSP shard workers the attempt uses (1 = inline).
    workers: int = 1
    #: the attempt is a half-open breaker's trial of the worker pool.
    probing: bool = False
    #: extra ``serve.attempt`` span attributes.
    attrs: dict = field(default_factory=dict)


class PathQueryService:
    """Fault-tolerant MCP query service over persistent named graphs."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        machine_factory: Callable[[int, int], PPAMachine] | None = None,
        sanitize: bool | None = None,
    ):
        self.config = config or ServiceConfig()
        self.machine_factory = machine_factory or default_machine_factory
        # Leak sanitizer (docs/static-analysis.md): explicit kwarg wins,
        # REPRO_SANITIZE=1 arms it everywhere (CI chaos smoke runs so).
        enable_sanitizer = sanitize if sanitize is not None \
            else sanitize_from_env()
        self.sanitizer: HostSanitizer | None = \
            HostSanitizer() if enable_sanitizer else None
        self.last_census: LeakCensus | None = None
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
            clock=self.config.clock,
        )
        self.ladder = DegradationLadder(
            recovery_successes=self.config.recovery_successes,
        )
        self.graphs: dict[str, _Graph] = {}
        #: the last version issued per graph name; it survives
        #: ``del_graph``, so a re-registered name never reuses a
        #: (name, version) key that cached or in-flight answers carry
        self._versions: dict[str, int] = {}
        self._columns: OrderedDict = OrderedDict()
        self._apsp: OrderedDict = OrderedDict()
        #: partially-invalidated APSP planes awaiting incremental
        #: re-solve, (name, version) -> salvage record (see _put_delta)
        self._apsp_salvage: OrderedDict = OrderedDict()
        self._coalescer: ColumnCoalescer | None = None
        if self.config.coalesce:
            self._coalescer = ColumnCoalescer(
                self._dispatch_columns, max_lanes=self.config.max_lanes,
            )
        self.counters: dict[str, int] = {
            "ok": 0, "shed": 0, "deadline": 0, "error": 0,
            "verify_rejections": 0, "retries": 0, "abandoned": 0,
            "cache_hits": 0, "cache_misses": 0, "degraded_responses": 0,
        }
        self._executor: ThreadPoolExecutor | None = None  # lazy
        self._epoch = self.config.clock()
        self._spans: deque = deque(maxlen=self.config.keep_request_spans)
        self._server: asyncio.AbstractServer | None = None
        self._reapers: set[asyncio.Task] = set()
        self._connections: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _arm_sanitizer(self) -> None:
        """Instrument the running loop, once, on first async entry."""
        if self.sanitizer is not None:
            self.sanitizer.arm(asyncio.get_running_loop())

    def _threads(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.max_inflight,
                thread_name_prefix="repro-serve",
            )
        return self._executor

    async def start(self, host: str = "127.0.0.1", port: int = 0
                    ) -> asyncio.AbstractServer:
        """Bind the JSON-lines TCP endpoint; returns the asyncio server
        (``server.sockets[0].getsockname()`` has the bound port)."""
        self._arm_sanitizer()
        self._server = await asyncio.start_server(
            self._on_connection, host, port, limit=MAX_LINE_BYTES + 1024,
        )
        return self._server

    async def stop(self) -> None:
        """Close the endpoint, drain reapers, shut the thread pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)
        if self._coalescer is not None:
            await self._coalescer.drain()
        if self._reapers:
            await asyncio.gather(*list(self._reapers),
                                 return_exceptions=True)
        if self._executor is not None:
            # shutdown(wait=True) joins worker threads: run the join on
            # the default executor so a slow in-flight solve cannot
            # freeze the loop during shutdown (host-blocking-io).
            executor, self._executor = self._executor, None
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, functools.partial(executor.shutdown, wait=True))
        if self.sanitizer is not None and self.sanitizer.armed:
            # Everything is drained: anything still alive is a leak.
            census = self.sanitizer.shutdown_census(
                admission=self.admission)
            self.last_census = census
            self.sanitizer.disarm()
            if not census.clean:
                raise SanitizerViolation(census)

    # ------------------------------------------------------------------
    # TCP plumbing
    # ------------------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        me = asyncio.current_task()
        if me is not None:
            self._connections.add(me)
        lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    async with lock:
                        writer.write(encode_message(Response(
                            id=None, status="error",
                            error="oversized protocol line",
                        )))
                        await writer.drain()
                    break
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # stop() cancelled us; finish the cleanup and end cleanly
        finally:
            if me is not None:
                self._connections.discard(me)
            if tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except asyncio.CancelledError:
                pass  # teardown via stop(): the transport dies with us

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter,
                          lock: asyncio.Lock) -> None:
        try:
            data = decode_line(line)
        except ReproError as exc:
            response = Response(id=None, status="error", error=str(exc))
        else:
            response = await self.handle_request(data)
        async with lock:
            try:
                writer.write(encode_message(response))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------

    async def handle_request(self, data: "dict | Request") -> Response:
        """Serve one request end to end (also the in-process test entry)."""
        self._arm_sanitizer()
        t0 = self.config.clock()
        try:
            req = data if isinstance(data, Request) \
                else Request.from_dict(data)
        except ReproError as exc:
            rid = data.get("id") if isinstance(data, dict) else None
            return self._finish(Response(id=rid, status="error",
                                         error=str(exc)), t0)

        span = Span("serve.request", {"op": req.op, "id": str(req.id)})
        span.start = t0 - self._epoch
        try:
            response = await self._dispatch(req, t0, span)
        except ReproError as exc:
            response = Response(id=req.id, status="error", op=req.op,
                                error=str(exc))
        except Exception as exc:  # never leak a traceback to the wire
            response = Response(id=req.id, status="error", op=req.op,
                                error=f"internal error: {exc!r}")
        span.end = self.config.clock() - self._epoch
        span.attrs["status"] = response.status
        self._spans.append(span)
        return self._finish(response, t0)

    def _finish(self, response: Response, t0: float) -> Response:
        response.timing.setdefault(
            "total_ms", round((self.config.clock() - t0) * 1e3, 3)
        )
        self.counters[response.status] = \
            self.counters.get(response.status, 0) + 1
        if response.degraded is not None:
            self.counters["degraded_responses"] += 1
        return response

    async def _dispatch(self, req: Request, t0: float, span: Span
                        ) -> Response:
        if req.op == "ping":
            return Response(id=req.id, status="ok", op="ping",
                            result={"pong": True},
                            server={"protocol": PROTOCOL_VERSION})
        if req.op == "health":
            return self._health(req)
        if req.op == "stats":
            return Response(id=req.id, status="ok", op="stats",
                            result=self.stats(),
                            server={"protocol": PROTOCOL_VERSION})
        if req.op == "put_graph":
            return self._put_graph(req)
        if req.op == "del_graph":
            return self._del_graph(req)
        if req.op in ("point", "dest", "apsp"):
            return await self._query(req, t0, span)
        raise ReproError(f"unhandled op {req.op!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Graph registry
    # ------------------------------------------------------------------

    def _put_graph(self, req: Request) -> Response:
        if not req.graph:
            raise ReproError("put_graph needs a graph name")
        if req.weights is not None and req.edges is not None:
            raise ReproError(
                "put_graph takes weights (full replace) or edges (delta), "
                "not both"
            )
        if req.edges is not None:
            return self._put_delta(req)
        if req.weights is None:
            raise ReproError("put_graph needs a weights matrix or an "
                             "edges delta")
        raw = np.asarray(
            [[np.inf if v is None else v for v in row]
             for row in req.weights],
            dtype=np.float64,
        )
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1] or raw.shape[0] < 2:
            raise GraphError(
                f"weights must be a square matrix of side >= 2, got shape "
                f"{raw.shape}"
            )
        g = _Graph.build(req.graph, raw, req.word_bits,
                         self._versions.get(req.graph, 0) + 1,
                         zero_diagonal="set")
        self.graphs[req.graph] = g
        self._versions[req.graph] = g.version
        self.ladder.forget(req.graph)  # new content, fresh health record
        self._purge(req.graph)
        return Response(id=req.id, status="ok", op="put_graph", result={
            "graph": g.name, "n": g.n, "version": g.version,
            "digest": g.digest, "maxint": g.maxint,
        })

    def _put_delta(self, req: Request) -> Response:
        """Incremental ``put_graph``: apply a sparse edge delta.

        Bumps the graph version, then *migrates* instead of dropping
        cached work. The graph's cached columns are stacked into one
        ``(n, k)`` plane: columns the delta provably cannot have changed
        (:func:`repro.serve.delta.dirty_destinations`) are re-keyed to
        the new version verbatim, and dirtied ones are dropped, to be
        re-solved cold on their next request. A cached APSP plane is
        split the same way, and a salvage record lets the next ``apsp``
        request re-solve only the dirtied lanes, cold, splicing them
        into the kept plane.
        """
        g = self._graph(req)
        if req.base_version is not None and req.base_version != g.version:
            raise ReproError(
                f"version conflict: graph {g.name!r} is at version "
                f"{g.version}, delta targets {req.base_version}"
            )
        edges = decode_edges(req.edges, g.n, g.maxint)
        new = _Graph.build(g.name, apply_edge_delta(g.W, edges, g.maxint),
                           g.word_bits, g.version + 1)
        self.graphs[g.name] = new
        self._versions[g.name] = new.version
        # unlike a full replace, graph health history stays: the content
        # is mostly the same machine-shaped problem

        cached = [d for d in range(g.n)
                  if (g.name, g.version, d) in self._columns]
        entries = [self._columns.pop((g.name, g.version, d))
                   for d in cached]
        dirtied = 0
        if entries:
            sow = np.stack([e["sow"] for e in entries], axis=1)
            ptn = np.stack([e["ptn"] for e in entries], axis=1)
            dirty = dirty_destinations(edges, sow, ptn, g.maxint)
            dirtied = int(dirty.sum())
            for i in np.flatnonzero(~dirty):
                self._columns[(g.name, new.version, cached[i])] = entries[i]
        kept = len(entries) - dirtied

        apsp_dirty = None
        plane = self._apsp.pop((g.name, g.version), None)
        if plane is not None:
            dirty = dirty_destinations(edges, plane["dist"], plane["succ"],
                                       g.maxint)
            apsp_dirty = int(dirty.sum())
            if apsp_dirty == 0:
                self._apsp[(g.name, new.version)] = plane
            else:
                self._apsp_salvage[(g.name, new.version)] = {
                    "dist": plane["dist"], "succ": plane["succ"],
                    "iterations": plane["iterations"],
                    "dirty": np.flatnonzero(dirty),
                }
                while len(self._apsp_salvage) > self.config.apsp_cache:
                    self._apsp_salvage.popitem(last=False)
                # the clean columns also serve point/dest directly
                for d in np.flatnonzero(~dirty):
                    d = int(d)
                    self._columns[(g.name, new.version, d)] = {
                        "sow": plane["dist"][:, d],
                        "ptn": plane["succ"][:, d],
                        "iterations": int(plane["iterations"][d]),
                        "engine": plane["engine"],
                        "degraded": plane.get("degraded"),
                    }
        while len(self._columns) > self.config.column_cache:
            self._columns.popitem(last=False)
        self._purge(g.name, keep_version=new.version)

        return Response(id=req.id, status="ok", op="put_graph", result={
            "graph": new.name, "n": new.n, "version": new.version,
            "digest": new.digest, "maxint": new.maxint,
            "delta": {
                "edges": len(edges),
                "columns_kept": kept,
                "columns_dirtied": dirtied,
                "apsp_dirty": apsp_dirty,
            },
        })

    def _purge(self, name: str, keep_version: int | None = None) -> None:
        """Drop cached columns, APSP planes and salvage records for
        *name* except, optionally, one version's."""
        for store in (self._columns, self._apsp, self._apsp_salvage):
            for key in [k for k in store
                        if k[0] == name and k[1] != keep_version]:
                del store[key]

    def _del_graph(self, req: Request) -> Response:
        if not req.graph:
            raise ReproError("del_graph needs a graph name")
        existed = self.graphs.pop(req.graph, None) is not None
        self.ladder.forget(req.graph)
        self._purge(req.graph)
        return Response(id=req.id, status="ok", op="del_graph",
                        result={"graph": req.graph, "deleted": existed})

    def _graph(self, req: Request) -> _Graph:
        if not req.graph:
            raise ReproError(f"{req.op} needs a graph name")
        try:
            return self.graphs[req.graph]
        except KeyError:
            raise ReproError(f"unknown graph {req.graph!r} "
                             "(register it with put_graph)") from None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    async def _query(self, req: Request, t0: float, span: Span) -> Response:
        g = self._graph(req)
        if req.op in ("point", "dest"):
            if req.dest is None or not 0 <= req.dest < g.n:
                raise ReproError(
                    f"dest must be in [0, {g.n}), got {req.dest}"
                )
        if req.op == "point":
            if req.source is None or not 0 <= req.source < g.n:
                raise ReproError(
                    f"source must be in [0, {g.n}), got {req.source}"
                )

        deadline_ms = req.deadline_ms or self.config.default_deadline_ms
        deadline_at = t0 + deadline_ms / 1e3

        # cached answers are served without consuming an admission slot
        cached = self._cache_lookup(req, g)
        if cached is not None:
            hit = Span("serve.cache_hit", {
                "graph": g.name, "version": g.version,
                "op": req.op,
                "dest": int(req.dest) if req.dest is not None else -1,
            })
            hit.start = self.config.clock() - self._epoch
            response = self._answer(req, g, cached, cached.get("degraded"))
            hit.end = self.config.clock() - self._epoch
            span.children.append(hit)
            response.timing["cached"] = True
            response.timing["queued_ms"] = 0.0
            return response

        if req.op == "apsp":
            outcome = await self._execute(
                g, "apsp", list(range(g.n)),
                functools.partial(self._plan_apsp, g), span, t0, deadline_at,
            )
        elif self._coalescer is not None:
            return await self._query_coalesced(req, g, deadline_at, t0,
                                               span)
        else:
            # a one-lane batch dispatched at once: no shared run, no
            # single-flight
            dest = int(req.dest)
            outcome = await self._execute(
                g, "columns", [dest],
                functools.partial(self._plan_columns, g, [dest], False),
                span, t0, deadline_at,
            )
            if outcome["status"] == "ok":
                outcome["payload"] = outcome["payload"][dest]
        return self._respond(req, g, outcome, {
            k: outcome[k] for k in ("attempts", "queued_ms") if k in outcome
        })

    async def _query_coalesced(self, req: Request, g: _Graph,
                               deadline_at: float, t0: float,
                               span: Span) -> Response:
        """Column path through the micro-batching coalescer.

        The request parks on the shared per-destination future; the
        coalescer dispatches one lane-batched engine run per batch of
        requests that joined in the same event-loop turn
        (``_dispatch_columns``) and the outcome fans back here.
        Per-request deadlines stay per-request: an expired waiter gets
        its ``deadline`` response while the batch keeps computing for
        the others (and still warms the cache). A single-flight joiner
        whose flight ran out of *its* deadline first joins a fresh
        flight with the time it has left.
        """
        dest = int(req.dest)
        while True:
            future, joined = self._coalescer.join(g, dest, deadline_at)
            wait = Span("serve.coalesce", {
                "graph": g.name, "version": g.version, "dest": dest,
                "single_flight": joined,
            })
            wait.start = self.config.clock() - self._epoch
            span.children.append(wait)
            try:
                remaining = deadline_at - self.config.clock()
                if remaining <= 0:
                    raise asyncio.TimeoutError
                outcome = await asyncio.wait_for(asyncio.shield(future),
                                                 timeout=remaining)
            except asyncio.TimeoutError:
                wait.end = self.config.clock() - self._epoch
                wait.attrs["outcome"] = "deadline"
                return Response(
                    id=req.id, status="deadline", op=req.op,
                    error="deadline expired awaiting coalesced batch",
                    timing={"queued_ms": round(
                        (self.config.clock() - t0) * 1e3, 3)},
                )
            wait.end = self.config.clock() - self._epoch
            wait.attrs["outcome"] = outcome["status"]
            # a flight joined in progress may have had an earlier
            # deadline than this request
            if not (joined and outcome["status"] == "deadline"
                    and self.config.clock() < deadline_at):
                break
        if outcome["status"] == "ok":
            timing = {"queued_ms": outcome["queued_ms"],
                      "attempts": outcome["attempts"],
                      "batched_with": outcome["batched_with"]}
            if joined:
                timing["single_flight"] = True
        elif outcome["status"] == "shed":
            timing = {}
        else:
            timing = {"attempts": outcome.get("attempts", 1)}
        return self._respond(req, g, outcome, timing)

    def _respond(self, req: Request, g: _Graph, outcome: dict,
                 timing: dict) -> Response:
        """The response for one outcome of :meth:`_execute`."""
        status = outcome["status"]
        if status == "ok":
            response = self._answer(req, g, outcome["payload"],
                                    outcome["degraded"])
        elif status == "shed":
            response = Response(
                id=req.id, status="shed", op=req.op,
                error="admission queue full",
                retry_after_ms=outcome.get("retry_after_ms"),
            )
        else:
            response = Response(
                id=req.id, status=status, op=req.op,
                error=outcome.get("message", "coalesced batch failed"),
            )
        response.timing.update(timing)
        return response

    async def _dispatch_columns(self, g: _Graph,
                                waiters: "dict[int, asyncio.Future]",
                                deadline_at: float) -> None:
        """The :class:`ColumnCoalescer`'s dispatch callback: one batch,
        one lane per waiting destination, through :meth:`_execute`.

        The whole batch consumes **one** admission slot, weighted by its
        lane count in the admission statistics. Never raises — every
        waiter is resolved to an outcome dict no matter what."""
        t0 = self.config.clock()
        batch_span = Span("serve.batch", {
            "graph": g.name, "version": g.version, "lanes": len(waiters),
        })
        batch_span.start = t0 - self._epoch
        self._spans.append(batch_span)
        dests = sorted(waiters)
        try:
            outcome = await self._execute(
                g, "columns", dests,
                functools.partial(self._plan_columns, g, dests, True),
                batch_span, t0, deadline_at, weight=len(dests),
            )
        except Exception as exc:  # never leave a waiter hanging
            outcome = {"status": "error",
                       "message": f"internal error: {exc!r}"}
        else:
            batch_span.attrs["status"] = outcome["status"]
        finally:
            batch_span.end = self.config.clock() - self._epoch
        for d, fut in waiters.items():
            if fut.done():
                continue
            if outcome["status"] == "ok":
                fut.set_result({**outcome, "payload": outcome["payload"][d],
                                "batched_with": len(dests)})
            else:
                fut.set_result(outcome)

    async def _execute(self, g: _Graph, op: str, dests: list,
                       plan: Callable[[Rung, list], _Attempt], span: Span,
                       t0: float, deadline_at: float, weight: int = 1
                       ) -> dict:
        """Admission, then the retry/degradation loop, for one batch.

        Every query that misses the cache runs here: a coalesced column
        batch, an uncoalesced column as a one-lane batch, or an APSP
        plane (``op == "apsp"``, every destination). ``plan(rung,
        notes)`` builds each attempt on the event loop; its work runs in
        a compute thread and returns a verified payload (dest -> column,
        or the APSP plane), which is cached before this returns.
        Attempt spans are children of *span*; ``queued_ms`` counts from
        *t0*.

        Returns an outcome dict: ``status`` (``ok``, ``shed``,
        ``deadline`` or ``error``) plus whichever of ``payload``,
        ``degraded``, ``attempts``, ``queued_ms``, ``message`` and
        ``retry_after_ms`` apply. The admission slot is released before
        returning unless an abandoned compute thread still owns it; a
        reaper task releases it when the thread finishes.
        """
        try:
            remaining = deadline_at - self.config.clock()
            if remaining <= 0:
                raise asyncio.TimeoutError
            await asyncio.wait_for(self.admission.acquire(weight=weight),
                                   timeout=remaining)
        except asyncio.TimeoutError:
            return {"status": "deadline",
                    "message": "deadline expired while queued for admission",
                    "queued_ms": round((self.config.clock() - t0) * 1e3, 3)}
        except QueueFull as exc:
            return {"status": "shed",
                    "retry_after_ms": round(exc.retry_after_ms, 3)}
        queued_ms = round((self.config.clock() - t0) * 1e3, 3)

        loop = asyncio.get_running_loop()
        # a stable digest, not hash(): str hashes differ per process, and
        # config.seed must replay the same backoff delays anywhere
        key = repr((self.config.seed, g.name, g.version, op, dests))
        rng = np.random.default_rng(int.from_bytes(
            hashlib.blake2b(key.encode(), digest_size=8).digest(), "little"))
        floor: Rung | None = None
        attempt = 0
        last_failure = "no attempt ran"
        release_inline = True

        def finish(status: str, **fields: Any) -> dict:
            return {"status": status, "attempts": attempt,
                    "queued_ms": queued_ms, **fields}

        try:
            while True:
                rung, reasons = self.ladder.rung_for(
                    g.name,
                    pressure=self.admission.pressure,
                    breaker_open=self.breaker.state is BreakerState.OPEN,
                )
                if floor is not None and floor.index > rung.index:
                    rung = floor
                    reasons.append(f"in-request retry after: {last_failure}")
                notes: list[str] = []
                step = plan(rung, notes)

                attempt_span = Span("serve.attempt", {
                    "rung": rung.index, "engine": rung.engine,
                    "workers": step.workers, "attempt": attempt,
                    **step.attrs,
                })
                attempt_span.start = self.config.clock() - self._epoch
                span.children.append(attempt_span)
                attempt += 1

                future = loop.run_in_executor(self._threads(), step.work)
                remaining = deadline_at - self.config.clock()
                failure: str | None = None
                payload: Any = None
                try:
                    if remaining <= 0:
                        raise asyncio.TimeoutError
                    payload = await asyncio.wait_for(asyncio.shield(future),
                                                     timeout=remaining)
                except asyncio.TimeoutError:
                    attempt_span.end = self.config.clock() - self._epoch
                    attempt_span.attrs["outcome"] = "deadline"
                    release_inline = future.done()
                    if not release_inline:
                        self.counters["abandoned"] += 1
                        reaper = asyncio.ensure_future(self._reap(future))
                        self._reapers.add(reaper)
                        reaper.add_done_callback(self._reapers.discard)
                    return finish("deadline",
                                  message="deadline expired during compute")
                except _AnswerRejected as exc:
                    self.counters["verify_rejections"] += 1
                    failure = f"verification rejected the answer: {exc}"
                except (ReproError, RuntimeError, ValueError) as exc:
                    failure = f"{type(exc).__name__}: {exc}"
                attempt_span.end = self.config.clock() - self._epoch

                if step.probing or (step.workers > 1 and payload is not None):
                    shard_failures = (payload or {}).get("shard_failures", 0)
                    if failure is not None or shard_failures:
                        self.breaker.record_failure(
                            failure or f"{shard_failures} shard failure(s)"
                        )
                        if shard_failures:
                            notes.append(
                                f"worker pool absorbed {shard_failures} "
                                "shard failure(s)"
                            )
                    else:
                        self.breaker.record_success()

                if failure is None:
                    attempt_span.attrs["outcome"] = "ok"
                    self.ladder.record_success(g.name)
                    degraded = None
                    if rung.index > 0 or reasons or notes:
                        degraded = rung.record(reasons + notes, step.workers)
                    # a delta, re-put or delete during the compute retired
                    # this version: its waiters still get the verified
                    # answer, but no lookup could reach it in the caches
                    current = self.graphs.get(g.name) is g
                    if current and op == "apsp":
                        self._store_apsp(g, payload, degraded)
                    elif current:
                        for d in dests:
                            self._store_column(g, d, payload[d], degraded)
                    return finish("ok", payload=payload, degraded=degraded)

                # -- failed attempt -----------------------------------
                attempt_span.attrs["outcome"] = failure
                last_failure = failure
                self.ladder.record_failure(g.name, rung, failure)
                floor = self.ladder.rung_below(rung)
                # the ladder has finite depth and the backoff a finite
                # retry budget: together they bound the attempts
                exhausted = attempt >= (self.config.backoff.max_attempts
                                        + len(RUNGS))
                if exhausted or (floor is None and
                                 attempt > self.config.backoff.max_attempts):
                    return finish("error", message=(
                        "degradation ladder exhausted; last failure: "
                        + failure))
                self.counters["retries"] += 1
                delay = self.config.backoff.delay(attempt, rng)
                if self.config.clock() + delay >= deadline_at:
                    return finish("deadline", message=(
                        "deadline would expire during retry backoff; "
                        "last failure: " + failure))
                if delay > 0:
                    await asyncio.sleep(delay)
        finally:
            if release_inline:
                self.admission.release()

    def _plan_columns(self, g: _Graph, dests: list, batched: bool,
                      rung: Rung, notes: list) -> _Attempt:
        """A column batch's attempt at *rung*: the lane-chunked cold
        solve of ``dests``. Only coalesced batches tag their attempt
        spans with lanes and width."""
        width = rung.coalesce_width(g.n, self.config.max_lanes)
        return _Attempt(
            functools.partial(self._compute_columns, g, dests, rung, notes,
                              width),
            attrs={"lanes": len(dests), "width": width} if batched else {},
        )

    def _plan_apsp(self, g: _Graph, rung: Rung, notes: list) -> _Attempt:
        """An APSP attempt at *rung*: the incremental re-solve of a
        salvage plane when one is waiting (it beats spinning up the
        worker pool), else the full sweep — on the worker pool when the
        rung and the breaker allow it."""
        salvage = None
        if not rung.resilient:
            # snapshot on the event loop; compute threads must not touch
            # service state
            salvage = self._apsp_salvage.get((g.name, g.version))
        workers, probing = 1, False
        if salvage is None and rung.use_workers and self.config.workers > 1:
            if self.breaker.allow():
                workers = self.config.workers
                probing = self.breaker.state is BreakerState.HALF_OPEN
            else:
                notes.append("worker-pool breaker open (inline sweep)")
        return _Attempt(
            functools.partial(self._compute_apsp, g, rung, workers, notes,
                              salvage),
            workers=workers, probing=probing,
        )

    async def _reap(self, future: "asyncio.Future") -> None:
        """Hold an abandoned compute's admission slot until the thread
        actually finishes, then release it."""
        try:
            await future
        except BaseException:
            pass
        finally:
            self.admission.release()

    # ------------------------------------------------------------------
    # Compute (runs in worker threads — no service state access)
    # ------------------------------------------------------------------

    def _machine(self, g: _Graph, rung: Rung, notes: list
                 ) -> tuple[PPAMachine, str]:
        """A machine for *rung* and the engine it runs: the resilient
        rung's array carries spare PEs, and an analytic engine the
        machine cannot run (a fault plan, say) downgrades to ``cycle``
        with a note."""
        if rung.resilient:
            machine = self.machine_factory(
                g.n + self.config.resilient_spares, g.word_bits
            )
            return machine, "cycle+resilient"
        machine = self.machine_factory(g.n, g.word_bits)
        blocked = fused_block_reason(machine)
        if rung.engine != "cycle" and blocked is not None:
            notes.append(f"engine auto-downgrade to cycle: {blocked}")
            return machine, "cycle"
        return machine, rung.engine

    def _solve_columns(self, g: _Graph, dests, rung: Rung, notes: list,
                       width: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
        """The lane-chunked column solver every compute path shares.

        Solves ``dests`` cold, in engine runs of at most ``width`` lanes
        — under the resilient executor on the bottom rung. Returns
        ``(sow, ptn, iterations, engine)`` with one row per destination.
        Verifies nothing: each caller verifies its answer once.
        """
        dests = np.asarray(dests, dtype=np.int64)
        sow = np.empty((dests.size, g.n), dtype=np.int64)
        ptn = np.empty_like(sow)
        iterations = np.empty(dests.size, dtype=np.int64)
        machine, engine = self._machine(g, rung, notes)
        executor = ResilientExecutor(machine, self.config.resilience) \
            if rung.resilient else None
        for base in range(0, dests.size, width):
            rows = slice(base, base + width)
            chunk = dests[rows]
            if executor is not None:
                recovered = executor.run_batched(g.W, chunk,
                                                 raise_on_failure=False)
                if not recovered.trustworthy:
                    raise _ComputeFailed(
                        "resilient executor exhausted its recovery budget"
                    )
                sow[rows], ptn[rows] = recovered.sow, recovered.ptn
                iterations[rows] = recovered.iterations
                continue
            res = batched_minimum_cost_path(
                machine.lanes(int(chunk.size)), g.plane, chunk,
                engine=engine,
            )
            sow[rows], ptn[rows] = res.sow, res.ptn
            iterations[rows] = res.iterations
        return sow, ptn, iterations, engine

    def _compute_columns(self, g: _Graph, dests: list, rung: Rung,
                         notes: list, width: int) -> dict:
        """Solve and verify one column batch; returns dest -> payload."""
        sow, ptn, iterations, engine = self._solve_columns(
            g, dests, rung, notes, width)
        out: dict[int, dict] = {}
        for b, d in enumerate(dests):
            problems = verify_mcp(g.W, sow[b], ptn[b], d, g.maxint,
                                  csr=g.csr)
            if problems:
                raise _AnswerRejected(problems)
            out[d] = {"sow": sow[b].copy(), "ptn": ptn[b].copy(),
                      "iterations": int(iterations[b]), "engine": engine}
        return out

    def _compute_apsp(self, g: _Graph, rung: Rung, workers: int,
                      notes: list, salvage: dict | None = None) -> dict:
        """Solve and verify one APSP plane.

        The resilient rung sweeps every destination, and a salvage
        record re-solves only its delta-dirtied columns, cold, spliced
        into the kept plane: both through :meth:`_solve_columns`.
        Otherwise one ``all_pairs_minimum_cost`` sweep, sharded when
        ``workers > 1``. The whole plane is verified once, like any
        other answer. Its ``digest`` hashes ``dist`` and ``succ``, so a
        spliced plane can digest differently from a fresh sweep where a
        kept column's tree differs from the cold one at a tie
        (:mod:`repro.serve.delta`).
        """
        lanes = max(1, g.n // rung.lane_div)
        incremental = None
        shard_failures = 0
        if rung.resilient or salvage is not None:
            if salvage is None:
                todo = np.arange(g.n, dtype=np.int64)
                dist = np.empty((g.n, g.n), dtype=np.int64)
                succ = np.empty_like(dist)
                iterations = np.empty(g.n, dtype=np.int64)
            else:
                todo = np.asarray(salvage["dirty"], dtype=np.int64)
                dist = np.array(salvage["dist"], copy=True)
                succ = np.array(salvage["succ"], copy=True)
                iterations = np.array(salvage["iterations"], copy=True)
                incremental = int(todo.size)
            sow, ptn, solved, engine = self._solve_columns(
                g, todo, rung, notes, lanes)
            dist[:, todo] = sow.T
            succ[:, todo] = ptn.T
            iterations[todo] = solved
        else:
            machine, engine = self._machine(g, rung, notes)
            res = all_pairs_minimum_cost(
                machine, g.W, engine=engine, lanes=lanes,
                workers=workers if workers > 1 else None,
                shard_timeout=self.config.shard_timeout,
            )
            dist, succ, iterations = res.dist, res.succ, res.iterations
            shard_failures = len(res.shard_report.get("failures", ()))
        problems = verify_apsp(g.W, dist, succ, g.maxint, csr=g.csr)
        if problems:
            raise _AnswerRejected(problems)
        digest = hashlib.blake2b(
            dist.tobytes() + succ.tobytes(), digest_size=16
        ).hexdigest()
        return {"dist": dist, "succ": succ,
                "iterations": np.asarray(iterations),
                "digest": digest, "engine": engine, "workers": workers,
                "shard_failures": shard_failures,
                "incremental": incremental}

    # ------------------------------------------------------------------
    # Caching
    # ------------------------------------------------------------------

    def _cache_lookup(self, req: Request, g: _Graph) -> dict | None:
        if req.op == "apsp":
            entry = self._apsp.get((g.name, g.version))
            if entry is not None:
                self._apsp.move_to_end((g.name, g.version))
                self.counters["cache_hits"] += 1
                return entry
        else:
            key = (g.name, g.version, int(req.dest))
            entry = self._columns.get(key)
            if entry is not None:
                self._columns.move_to_end(key)
                self.counters["cache_hits"] += 1
                return entry
            apsp = self._apsp.get((g.name, g.version))
            if apsp is not None:
                d = int(req.dest)
                self.counters["cache_hits"] += 1
                return {"sow": apsp["dist"][:, d], "ptn": apsp["succ"][:, d],
                        "iterations": int(apsp["iterations"][d]),
                        "engine": apsp["engine"],
                        "degraded": apsp.get("degraded")}
        self.counters["cache_misses"] += 1
        return None

    def _store_column(self, g: _Graph, dest: int, payload: dict,
                      degraded: dict | None) -> None:
        entry = dict(payload)
        entry["degraded"] = degraded
        self._columns[(g.name, g.version, int(dest))] = entry
        while len(self._columns) > self.config.column_cache:
            self._columns.popitem(last=False)

    def _store_apsp(self, g: _Graph, payload: dict,
                    degraded: dict | None) -> None:
        entry = dict(payload)
        entry["degraded"] = degraded
        self._apsp[(g.name, g.version)] = entry
        while len(self._apsp) > self.config.apsp_cache:
            self._apsp.popitem(last=False)
        self._apsp_salvage.pop((g.name, g.version), None)
        # a verified plane answers every per-destination column: seed
        # the column LRU so later point/dest hits skip the apsp slice
        dist, succ = entry["dist"], entry["succ"]
        iterations = entry["iterations"]
        for d in range(g.n):
            self._columns[(g.name, g.version, d)] = {
                "sow": dist[:, d], "ptn": succ[:, d],
                "iterations": int(iterations[d]),
                "engine": entry["engine"], "degraded": degraded,
            }
        while len(self._columns) > self.config.column_cache:
            self._columns.popitem(last=False)

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------

    def _answer(self, req: Request, g: _Graph, payload: dict,
                degraded: dict | None) -> Response:
        if req.op == "apsp":
            dist = payload["dist"]
            reachable = int((dist < g.maxint).sum())
            result = {
                "n": g.n, "version": g.version,
                "reachable_pairs": reachable,
                "iterations_max": int(np.max(payload["iterations"])),
                "digest": payload["digest"],
                "engine": payload["engine"],
                "workers": payload.get("workers", 1),
                "incremental": payload.get("incremental"),
            }
            return Response(id=req.id, status="ok", op="apsp",
                            result=result, degraded=degraded)
        sow, ptn = payload["sow"], payload["ptn"]
        if req.op == "dest":
            result = {
                "graph": g.name, "version": g.version, "dest": int(req.dest),
                "sow": [int(v) for v in sow],
                "ptn": [int(v) for v in ptn],
                "maxint": g.maxint,
                "iterations": payload["iterations"],
                "engine": payload["engine"],
            }
            return Response(id=req.id, status="ok", op="dest",
                            result=result, degraded=degraded)
        # point
        source, dest = int(req.source), int(req.dest)
        cost = int(sow[source])
        reachable = cost < g.maxint
        result = {
            "graph": g.name, "version": g.version,
            "source": source, "dest": dest,
            "reachable": reachable,
            "cost": cost if reachable else None,
            "next": int(ptn[source]) if reachable and source != dest
            else None,
            "engine": payload["engine"],
        }
        if req.want_path and reachable:
            result["path"] = self._walk_path(sow, ptn, source, dest,
                                             g.maxint)
        return Response(id=req.id, status="ok", op="point", result=result,
                        degraded=degraded)

    @staticmethod
    def _walk_path(sow, ptn, source: int, dest: int, maxint: int
                   ) -> list[int]:
        path = [source]
        v = source
        for _ in range(sow.shape[0]):
            if v == dest:
                return path
            v = int(ptn[v])
            path.append(v)
        raise ReproError("successor chain does not reach the destination")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _health(self, req: Request) -> Response:
        levels = self.ladder.snapshot()["levels"]
        degraded = bool(levels) or self.breaker.state is not \
            BreakerState.CLOSED
        return Response(id=req.id, status="ok", op="health", result={
            "status": "degraded" if degraded else "healthy",
            "breaker": self.breaker.state.value,
            "ladder_levels": levels,
            "graphs": len(self.graphs),
            "inflight": self.admission.inflight,
            "queue_depth": self.admission.queue_depth,
        }, server={"protocol": PROTOCOL_VERSION})

    def stats(self) -> dict:
        """The full service snapshot (the ``stats`` op's result body)."""
        return {
            "protocol": PROTOCOL_VERSION,
            "graphs": {
                name: {"n": g.n, "version": g.version, "digest": g.digest}
                for name, g in self.graphs.items()
            },
            "admission": self.admission.snapshot(),
            "breaker": self.breaker.snapshot(),
            "ladder": self.ladder.snapshot(),
            "counters": dict(self.counters),
            "caches": {"columns": len(self._columns),
                       "apsp": len(self._apsp),
                       "apsp_salvage": len(self._apsp_salvage)},
            "coalescer": (self._coalescer.snapshot()
                          if self._coalescer is not None else None),
            "engine": {
                "plan_cache": plan_cache_stats().snapshot(),
                "plan_cache_sizes": plan_cache_sizes(),
                "cost_cache": cost_cache_stats(),
                "cost_cache_size": cost_cache_size(),
            },
            "sanitizer": (
                None if self.sanitizer is None else {
                    "armed": self.sanitizer.armed,
                    "last_census": (self.last_census.to_dict()
                                    if self.last_census else None),
                }
            ),
        }

    def profile(self) -> RunProfile:
        """Recent per-request spans as a standard telemetry profile."""
        return RunProfile(
            meta={"source": "repro.serve", "protocol": PROTOCOL_VERSION},
            spans=list(self._spans),
        )
