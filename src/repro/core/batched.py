"""Batched (multi-lane) Minimum Cost Path — one kernel, many destinations.

The paper's host controller drives one single-destination MCP at a time;
its APSP corollary therefore costs ``n`` serial machine passes. But every
bus primitive of the simulator is a pure numpy kernel over the grid, so
``B`` *independent* problem instances stack into a ``(B, n, n)`` lane axis
and the whole batch advances with **one** SIMD pass per bus transaction
(see :mod:`repro.ppa.segments`). This module runs the Section 3 listing
statement-for-statement across all lanes at once.

Convergence masking
-------------------
Lanes converge at different iteration counts. The batched loop keeps
running until *every* lane's row-``d`` SOW stops changing, but

* each lane's ``iterations`` counts only the rounds executed while that
  lane was still live (its serial iteration count, final no-change round
  included),
* stores are gated by the live-lane mask, so a converged lane's ``SOW`` /
  ``PTN`` planes are frozen verbatim, and
* :meth:`~repro.ppa.machine.PPAMachine.set_active_lanes` masks the
  per-lane cost ledger, so a converged lane stops accruing counters.

Because one MCP iteration issues a *fixed*, data-independent instruction
sequence (the do-while body has no data-dependent branches below the
controller), lane ``b``'s per-lane counter delta is **bit-identical** to
what a serial :func:`repro.core.mcp.minimum_cost_path` run of lane ``b``
would record — the property test in ``tests/core/test_batched.py`` pins
this lane-for-lane.

Scalar machine counters tell the other story: they price the *batched*
instruction stream (one broadcast is one broadcast, however many lanes it
serves), which is exactly the amortisation batching buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError
from repro.core.graph import normalize_weights
from repro.core.result import MCPResult
from repro.engine.select import resolve_engine
from repro.ppa.counters import LaneCounters
from repro.ppa.directions import Direction
from repro.ppa.machine import PPAMachine
from repro.ppa.topology import PPAConfig
from repro.ppc.reductions import ppa_min, ppa_selected_min

__all__ = [
    "BatchedMCPResult",
    "batched_minimum_cost_path",
    "batched_mcp_on_new_machine",
]


@dataclass(frozen=True)
class BatchedMCPResult:
    """Outcome of one batched multi-destination MCP computation.

    Attributes
    ----------
    destinations
        ``(B,)`` destination vertex per lane.
    sow, ptn
        ``(B, n)`` stacks: lane ``b``'s row holds exactly what the serial
        :class:`~repro.core.result.MCPResult` for ``destinations[b]``
        would hold.
    iterations
        ``(B,)`` per-lane do-while iteration counts (serial-identical).
    maxint
        The machine's infinity sentinel.
    counters
        Scalar machine counter delta of the *batched* instruction stream —
        one charge per SIMD instruction regardless of lane count. This is
        the cost a real B-lane PPA deployment would pay.
    lane_counters
        Per-lane serial-equivalent counter deltas: ``{name: (B,) int64}``.
        ``lane_counters[k][b]`` equals the serial run's ``counters[k]``
        for lane ``b``; summing over lanes reproduces the serial APSP
        totals exactly.
    """

    destinations: np.ndarray
    sow: np.ndarray
    ptn: np.ndarray
    iterations: np.ndarray
    maxint: int
    counters: dict[str, int] = field(default_factory=dict)
    lane_counters: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "destinations", np.asarray(self.destinations, dtype=np.int64)
        )
        object.__setattr__(self, "sow", np.asarray(self.sow, dtype=np.int64))
        object.__setattr__(self, "ptn", np.asarray(self.ptn, dtype=np.int64))
        object.__setattr__(
            self, "iterations", np.asarray(self.iterations, dtype=np.int64)
        )
        if self.sow.ndim != 2 or self.sow.shape != self.ptn.shape:
            raise GraphError("sow and ptn must be (B, n) arrays of equal shape")

    @property
    def batch(self) -> int:
        """Number of lanes ``B``."""
        return int(self.sow.shape[0])

    @property
    def n(self) -> int:
        """Number of vertices."""
        return int(self.sow.shape[1])

    def lane(self, b: int) -> MCPResult:
        """Lane *b* as a plain serial :class:`MCPResult` (counters included)."""
        return MCPResult(
            destination=int(self.destinations[b]),
            sow=self.sow[b].copy(),
            ptn=self.ptn[b].copy(),
            iterations=int(self.iterations[b]),
            maxint=self.maxint,
            counters=LaneCounters.lane_of(self.lane_counters, b)
            if self.lane_counters
            else {},
        )

    def lane_counter_totals(self) -> dict[str, int]:
        """Per-lane deltas summed over lanes (= serial sweep totals)."""
        return LaneCounters.total_of(self.lane_counters)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedMCPResult(batch={self.batch}, n={self.n}, "
            f"iterations={self.iterations.min()}..{self.iterations.max()})"
        )


def _normalize_lane_weights(
    W, machine: PPAMachine, batch: int, zero_diagonal: str
) -> np.ndarray:
    """Validate a shared ``(n, n)`` or per-lane ``(B, n, n)`` weight input.

    A shared plane may also be a
    :class:`~repro.engine.compiled.PreparedPlane`, whose read-only plane
    is returned as it is.
    """
    # the engine package imports this module's importers
    from repro.engine._loop import weight_plane
    from repro.engine.compiled import PreparedPlane

    arr = None if isinstance(W, PreparedPlane) else np.asarray(W)
    if arr is None or arr.ndim == 2:
        # Shared across lanes: normalise once, keep 2-D so the bus kernels
        # take the shared-plane fast path and numpy broadcasting does the
        # lane replication for free.
        return weight_plane(W, machine, zero_diagonal)
    if arr.ndim == 3:
        if arr.shape[0] != batch:
            raise GraphError(
                f"weight stack has {arr.shape[0]} lanes but "
                f"{batch} destinations were given"
            )
        return np.stack(
            [
                normalize_weights(arr[b], machine, zero_diagonal=zero_diagonal)
                for b in range(batch)
            ]
        )
    raise GraphError(
        f"weights must be (n, n) or (B, n, n), got shape {arr.shape}"
    )


def batched_minimum_cost_path(
    machine: PPAMachine,
    W,
    destinations,
    *,
    zero_diagonal: str = "require",
    max_iterations: int | None = None,
    min_routine=ppa_min,
    selected_min_routine=ppa_selected_min,
    engine: str = "auto",
) -> BatchedMCPResult:
    """Run ``B`` independent MCP instances as lanes of one batched pass.

    Parameters
    ----------
    machine
        Either a batched machine (``PPAMachine(..., batch=B)`` with ``B ==
        len(destinations)``) or an unbatched one — in the latter case a
        batched :meth:`~repro.ppa.machine.PPAMachine.lanes` view is created
        that shares the caller's counters, telemetry and fault plan.
    W
        One shared ``(n, n)`` weight matrix applied to every lane (the APSP
        case) or a per-lane ``(B, n, n)`` stack (sweep workloads).
    destinations
        ``(B,)`` destination vertex per lane. Duplicates are allowed.
    zero_diagonal, max_iterations, min_routine, selected_min_routine
        As in :func:`repro.core.mcp.minimum_cost_path`.
    engine
        ``"auto"`` (default) upgrades to the ``compiled`` analytic tier
        on eligible machines (see :mod:`repro.engine`);
        ``"cycle"``/``"fused"``/
        ``"compiled"`` force one. Results and both counter books are
        bit-identical every way.

    Returns
    -------
    BatchedMCPResult
        Per-lane results bit-identical to serial runs, plus both cost
        books (batched-stream scalars and per-lane serial-equivalents).
    """
    choice = resolve_engine(
        machine,
        engine,
        min_routine=min_routine,
        selected_min_routine=selected_min_routine,
    )
    if choice.compiled:
        from repro.engine.compiled import compiled_batched_minimum_cost_path

        return compiled_batched_minimum_cost_path(
            machine,
            W,
            destinations,
            zero_diagonal=zero_diagonal,
            max_iterations=max_iterations,
        )
    if choice.fused:
        from repro.engine.fused import fused_batched_minimum_cost_path

        return fused_batched_minimum_cost_path(
            machine,
            W,
            destinations,
            zero_diagonal=zero_diagonal,
            max_iterations=max_iterations,
        )
    dest = np.asarray(destinations, dtype=np.int64)
    if dest.ndim != 1 or dest.size == 0:
        raise GraphError(
            f"destinations must be a non-empty 1-D vector, got shape "
            f"{dest.shape}"
        )
    batch = int(dest.size)
    if machine.batch is None:
        machine = machine.lanes(batch)
    elif machine.batch != batch:
        raise GraphError(
            f"machine has batch={machine.batch} but {batch} destinations "
            "were given"
        )
    n = machine.n
    if ((dest < 0) | (dest >= n)).any():
        bad = int(dest[(dest < 0) | (dest >= n)][0])
        raise GraphError(f"destination {bad} outside [0, {n})")
    # Every plane of the listing is a word plane (see new_parallel).
    word = machine.word_dtype
    Wm = _normalize_lane_weights(W, machine, batch, zero_diagonal).astype(word)
    if max_iterations is None:
        max_iterations = n + 1

    before = machine.counters.snapshot()
    lanes_before = machine.lane_counters.snapshot()
    SOUTH, WEST = Direction.SOUTH, Direction.WEST
    tele = machine.telemetry
    lane_idx = np.arange(batch)

    machine.set_active_lanes(None)
    try:
        with tele.span("mcp.batched", arch="ppa", n=n, lanes=batch):
            with tele.span("mcp.init"):
                ROW = machine.row_index
                COL = machine.col_index.astype(word)
                # Per-lane planes where the destination enters; shared 2-D
                # planes (diag, col_last) keep the one-plan fast path.
                row_d = ROW[None, :, :] == dest[:, None, None]
                diag = ROW == COL
                col_last = COL == (n - 1)
                machine.count_alu(3)

                SOW = machine.new_parallel(0, word)
                PTN = machine.new_parallel(0, word)
                MIN_SOW = machine.new_parallel(0, word)

                # Statements 4-7 with the directed-graph init transposition
                # (see core/mcp.py): fan column d across the rows, then the
                # diagonal down the columns, per lane.
                col_d = COL[None, :, :] == dest[:, None, None]
                machine.count_alu()
                w_to_d = machine.broadcast(Wm, Direction.EAST, col_d)
                transposed = machine.broadcast(w_to_d, SOUTH, diag)
                with machine.where(row_d):
                    machine.store(SOW, transposed)
                    machine.store(PTN, dest[:, None, None])

            iterations = np.zeros(batch, dtype=np.int64)
            active = np.ones(batch, dtype=bool)
            rounds = 0
            while active.any():
                rounds += 1
                machine.set_active_lanes(active)
                iterations += active
                # Freeze converged lanes: their stores are masked off so
                # SOW/PTN stay verbatim (the datapath still computes every
                # lane — that is the SIMD contract).
                gate = active[:, None, None]

                with tele.span("mcp.iteration", k=rounds):
                    # Statements 9-13.
                    with machine.where(gate & ~row_d):
                        with tele.span("mcp.broadcast"):
                            candidates = machine.sat_add(
                                machine.broadcast(SOW, SOUTH, row_d), Wm
                            )
                            machine.store(SOW, candidates)
                        with tele.span("mcp.min"):
                            machine.store(
                                MIN_SOW,
                                min_routine(machine, SOW, WEST, col_last),
                            )
                        with tele.span("mcp.selected_min"):
                            achieves = MIN_SOW == SOW
                            machine.count_alu()
                            machine.store(
                                PTN,
                                selected_min_routine(
                                    machine, COL, WEST, col_last, achieves
                                ),
                            )

                    # Statements 14-19. Only each lane's destination row
                    # can change under the gated row-d store mask, so
                    # OLD_SOW materialises just those B rows instead of
                    # copying (and comparing) the whole (B, n, n) stack —
                    # counter-neutral, as in the serial loop.
                    with tele.span("mcp.writeback"):
                        with machine.where(gate & row_d):
                            OLD_ROWS = SOW[lane_idx, dest, :].copy()
                            machine.count_alu()
                            machine.store(
                                SOW, machine.broadcast(MIN_SOW, SOUTH, diag)
                            )
                            changed = np.zeros(SOW.shape, dtype=bool)
                            changed[lane_idx, dest, :] = (
                                SOW[lane_idx, dest, :] != OLD_ROWS
                            )
                            machine.count_alu()
                            with machine.where(changed):
                                machine.store(
                                    PTN, machine.broadcast(PTN, SOUTH, diag)
                                )

                    # Statement 20, per lane: the controller condition flag
                    # exists once per lane.
                    with tele.span("mcp.convergence"):
                        still = machine.lane_global_or(changed & row_d)

                active = active & still
                if active.any() and rounds >= max_iterations:
                    raise GraphError(
                        f"batched MCP did not converge within "
                        f"{max_iterations} iterations; the input violates "
                        "the algorithm's preconditions"
                    )
    finally:
        machine.set_active_lanes(None)

    return BatchedMCPResult(
        destinations=dest.copy(),
        sow=SOW[lane_idx, dest, :].copy(),
        ptn=PTN[lane_idx, dest, :].copy(),
        iterations=iterations,
        maxint=machine.maxint,
        counters=machine.counters.diff(before),
        lane_counters=machine.lane_counters.diff(lanes_before),
    )


def batched_mcp_on_new_machine(
    W, destinations, *, word_bits: int = 16, **kwargs
) -> BatchedMCPResult:
    """Convenience wrapper: size a fresh batched machine to *W* and run."""
    arr = np.asarray(W)
    n = arr.shape[-1]
    dest = np.asarray(destinations)
    if dest.ndim != 1 or dest.size == 0:
        raise GraphError(
            f"destinations must be a non-empty 1-D vector, got shape "
            f"{dest.shape}"
        )
    machine = PPAMachine(
        PPAConfig(n=n, word_bits=word_bits), batch=int(dest.size)
    )
    return batched_minimum_cost_path(machine, W, destinations, **kwargs)
