"""All-pairs minimum cost paths (extension).

The paper solves the single-destination problem; all-pairs follows by
sweeping the destination over every vertex, exactly how a host controller
would drive the array (reference [4] does the same on the Connection
Machine). Costs accumulate linearly: ``n`` runs of O(p*h) bus cycles each.

Since the batched lane axis landed (:mod:`repro.core.batched`), the sweep
is executed as **lanes of one batched pass** by default: all ``n``
destinations share one weight matrix, so a single SIMD kernel advances
every destination per bus transaction instead of ``n`` serial machine
passes — the headline wall-clock win of ``BENCH_p2_batching.json``. The
result is *bit-identical* to the serial sweep: per-destination ``dist`` /
``succ`` / ``iterations`` and counter deltas match exactly (convergence
masking freezes finished lanes), and :attr:`APSPResult.counters` remains
the serial-equivalent sum, so every recorded experiment table (T9, F2-F4)
is unchanged. Pass ``serial=True`` to force the literal one-destination-
at-a-time host-controller loop; ``lanes=B`` caps how many destinations
ride in one batch (memory is O(B * n^2)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.batched import batched_minimum_cost_path
from repro.core.mcp import minimum_cost_path
from repro.core.variants import minimum_cost_path_word
from repro.ppa.counters import LaneCounters
from repro.ppa.machine import PPAMachine

__all__ = ["APSPResult", "all_pairs_minimum_cost"]


@dataclass(frozen=True)
class APSPResult:
    """All-pairs outcome.

    Attributes
    ----------
    dist
        ``dist[i, j]`` = cost of a minimum cost path ``i -> j``
        (``maxint`` when unreachable); the diagonal is zero.
    succ
        ``succ[i, j]`` = vertex following ``i`` on a minimum cost path to
        ``j`` (meaningful only where ``dist < maxint``).
    iterations
        Per-destination do-while iteration counts.
    maxint
        Infinity sentinel used in :attr:`dist`.
    counters
        **Serial-equivalent** machine counter deltas summed over all
        destinations — identical whether the sweep ran serially or
        batched. All recorded experiment tables are priced in these.
    machine_counters
        Counter deltas the driving machine actually accrued. Equal to
        :attr:`counters` for a serial sweep; much smaller for a batched
        one (one SIMD instruction serves many lanes) — the amortisation
        batching buys.
    lane_counters
        Per-destination counter deltas ``{name: (n,) int64}``; column
        ``d`` is what a serial run for destination ``d`` records. Empty
        for ``serial=True`` sweeps (use the scalar totals instead).
    shard_report
        How a ``workers=`` request was honoured. Empty for plain inline
        sweeps; for a sharded sweep it carries the shard layout, the
        concrete engine and per-worker cost-cache stats; for a blocked
        request it carries ``{"workers": 1, "blocked": reason}`` (the
        sweep ran inline — the CLI surfaces the reason as a note).
    """

    dist: np.ndarray
    succ: np.ndarray
    iterations: np.ndarray
    maxint: int
    counters: dict[str, int] = field(default_factory=dict)
    machine_counters: dict[str, int] = field(default_factory=dict)
    lane_counters: dict[str, np.ndarray] = field(default_factory=dict)
    shard_report: dict = field(default_factory=dict)

    def path(self, source: int, target: int) -> list[int]:
        """Vertex sequence of a minimum cost path ``source -> target``."""
        from repro.errors import GraphError

        n = self.dist.shape[0]
        if self.dist[source, target] >= self.maxint:
            raise GraphError(f"{target} unreachable from {source}")
        path = [int(source)]
        v = int(source)
        for _ in range(n):
            if v == target:
                return path
            v = int(self.succ[v, target])
            path.append(v)
        raise GraphError("corrupt successor matrix")


def all_pairs_minimum_cost(
    machine: PPAMachine,
    W,
    *,
    word_parallel: bool = False,
    serial: bool = False,
    lanes: int | None = None,
    engine: str = "auto",
    workers: int | None = None,
    shard_timeout: float | None = None,
    warm_sow: np.ndarray | None = None,
    **kwargs,
) -> APSPResult:
    """Assemble the all-pairs matrices from per-destination MCP runs.

    Parameters
    ----------
    machine
        An unbatched ``n x n`` machine. Batched execution runs through
        :meth:`~repro.ppa.machine.PPAMachine.lanes` views that share this
        machine's counters and telemetry, so profiles attribute the work
        to the caller exactly as the serial sweep did.
    word_parallel
        Use the A7 word-parallel bus minimum instead of the paper's
        bit-serial routine.
    serial
        Force the literal host-controller loop: one destination per
        machine pass (the paper's/reference [4]'s execution model).
    lanes
        Destinations per batched pass (default: all ``n``). Lower it to
        bound the ``O(lanes * n^2)`` working set on big grids.
    engine
        Execution engine per destination batch: ``"auto"`` (default) runs
        the compiled analytic-cost engine when eligible — which is the normal
        case for plain sweeps — and the cycle engine otherwise (profiling,
        fault plans, ``word_parallel=True`` ablations). Forcing
        ``"cycle"``/``"fused"``/``"compiled"`` is forwarded verbatim;
        results and all counter books are bit-identical either way (see
        :mod:`repro.engine`).
    workers
        Number of worker processes to shard destinations over
        (``None``/``1`` = inline). Each worker runs a contiguous
        destination shard on a fresh machine over shared-memory planes;
        results and the serial-equivalent ``counters`` are bit-identical
        to the inline sweep for every worker count. When sharding is
        blocked (serial sweep, fault plan, tracer, bus trace, custom
        routines — see :func:`repro.engine.shard.workers_block_reason`)
        the sweep falls back inline and records the reason in
        :attr:`APSPResult.shard_report`.
    shard_timeout
        Per-worker-attempt deadline in seconds for sharded sweeps
        (default :data:`repro.engine.shard.DEFAULT_SHARD_TIMEOUT`). A
        crashed, wedged or injected-faulty worker is respawned once and,
        failing that, its shard is recomputed inline — see
        :class:`repro.engine.shard.ShardFailure`.
    warm_sow
        Optional ``(n, n)`` plane of certified upper bounds laid out like
        :attr:`APSPResult.dist` (``warm_sow[:, d]`` seeds destination
        ``d``; ``maxint`` for "no bound"). Honoured on the inline batched
        sweep through the analytic engines — the serving tier's
        incremental re-solve path — where each batch is seeded with
        ``warm_sow[:, dests].T`` and returns cold-identical
        ``dist``/``succ``/``iterations`` (see
        :func:`repro.core.mcp.minimum_cost_path`). Serial and sharded
        sweeps ignore it: the serial loop is the paper's literal cold
        program, and shipping seed planes across worker shared memory is
        not worth the copy for the sharded case.
    """
    n = machine.n
    tele = machine.telemetry
    kwargs = dict(kwargs, engine=engine)

    shard_report: dict = {}
    if workers is not None and int(workers) > 1:
        from repro.engine.shard import sharded_all_pairs, workers_block_reason

        blocked = workers_block_reason(
            machine,
            serial=serial,
            word_parallel=word_parallel,
            min_routine=kwargs.get("min_routine"),
            selected_min_routine=kwargs.get("selected_min_routine"),
        )
        if blocked is None:
            return sharded_all_pairs(
                machine,
                W,
                workers=int(workers),
                lanes=lanes,
                engine=engine,
                zero_diagonal=kwargs.get("zero_diagonal", "require"),
                max_iterations=kwargs.get("max_iterations"),
                shard_timeout=shard_timeout,
            )
        shard_report = {
            "requested_workers": int(workers),
            "workers": 1,
            "blocked": blocked,
        }

    if serial:
        runner = minimum_cost_path_word if word_parallel else minimum_cost_path
        dist = np.full((n, n), machine.maxint, dtype=np.int64)
        succ = np.zeros((n, n), dtype=np.int64)
        iterations = np.zeros(n, dtype=np.int64)
        totals: dict[str, int] = {}
        with tele.span("apsp", n=n, word_parallel=word_parallel, lanes=1):
            for d in range(n):
                with tele.span("apsp.destination", d=d):
                    res = runner(machine, W, d, **kwargs)
                dist[:, d] = res.sow
                succ[:, d] = res.ptn
                iterations[d] = res.iterations
                for k, v in res.counters.items():
                    totals[k] = totals.get(k, 0) + v
        return APSPResult(
            dist=dist,
            succ=succ,
            iterations=iterations,
            maxint=machine.maxint,
            counters=totals,
            machine_counters=dict(totals),
            shard_report=shard_report,
        )

    if word_parallel:
        from repro.core.variants import _word_selected_min
        from repro.ppc.reductions import word_parallel_min

        kwargs = dict(
            kwargs,
            min_routine=word_parallel_min,
            selected_min_routine=_word_selected_min,
        )

    lane_cap = n if lanes is None else max(1, min(int(lanes), n))
    dist = np.full((n, n), machine.maxint, dtype=np.int64)
    succ = np.zeros((n, n), dtype=np.int64)
    iterations = np.zeros(n, dtype=np.int64)
    lane_deltas = {
        name: np.zeros(n, dtype=np.int64)
        for name in type(machine.counters).field_names()
    }
    machine_before = machine.counters.snapshot()
    with tele.span(
        "apsp", n=n, word_parallel=word_parallel, lanes=lane_cap
    ):
        for start in range(0, n, lane_cap):
            dests = np.arange(start, min(start + lane_cap, n))
            with tele.span(
                "apsp.batch", first=int(dests[0]), lanes=int(dests.size)
            ):
                view = machine.lanes(int(dests.size))
                seed = None
                if warm_sow is not None:
                    seed = np.ascontiguousarray(warm_sow[:, dests].T)
                res = batched_minimum_cost_path(
                    view, W, dests, warm_sow=seed, **kwargs
                )
            dist[:, dests] = res.sow.T
            succ[:, dests] = res.ptn.T
            iterations[dests] = res.iterations
            for name, plane in res.lane_counters.items():
                lane_deltas[name][dests] = plane
    return APSPResult(
        dist=dist,
        succ=succ,
        iterations=iterations,
        maxint=machine.maxint,
        counters=LaneCounters.total_of(lane_deltas),
        machine_counters=machine.counters.diff(machine_before),
        lane_counters=lane_deltas,
        shard_report=shard_report,
    )
