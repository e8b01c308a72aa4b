"""Minimum Cost Path on the PPA — the paper's Section 3 algorithm.

Statement-by-statement port of the ``minimum_cost_path()`` listing. Line
references below cite the listing's numbering::

    1: minimum_cost_path()
    4:   where (ROW == d) {
    5:     SOW = W;
    6:     PTN = d;
    8:   do
    9:     where (ROW != d) {
   10:       SOW = broadcast(SOW, SOUTH, ROW == d) + W;
   11:       MIN_SOW = min(SOW, WEST, COL == (n - 1));
   12:       PTN = selected_min(COL, WEST, COL == (n - 1), MIN_SOW == SOW);
   14:     where (ROW == d) {
   15:       OLD_SOW = SOW;
   16:       SOW = broadcast(MIN_SOW, SOUTH, ROW == COL);
   17:       where (SOW != OLD_SOW)
   18:         PTN = broadcast(PTN, SOUTH, ROW == COL);
   20:   while (at least one SOW in row d has changed);

Statement 10's ``+`` is saturating (``MAXINT`` absorbs): the broadcast
delivers ``SOW[d, j]`` — the best known cost *from j to d* — down column
``j``, and node ``(i, j)`` forms the candidate "go first to ``j``" cost.
Statement 11 minimises the candidates along each row (all of row ``i``
forms one bus cluster, Open only at column ``n-1``); statement 12 re-runs
the bit-serial scan restricted to minimum achievers over ``COL`` to pick
the (smallest-index) best successor. Statements 14-18 return the fresh
row-minima from the diagonal back up to row ``d`` for the next round.

Note ``MIN_SOW`` is allocated zero-initialised and statement 11's store is
masked off row ``d``; node ``(d, d)`` therefore keeps ``MIN_SOW = 0``
forever, which is exactly what statement 16 must deliver to ``SOW[d, d]``
(the cost from ``d`` to itself).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.core.graph import normalize_weights
from repro.core.result import MCPResult
from repro.engine.select import resolve_engine
from repro.ppa.directions import Direction
from repro.ppa.machine import PPAMachine
from repro.ppa.topology import PPAConfig
from repro.ppc.reductions import ppa_min, ppa_selected_min

__all__ = ["minimum_cost_path", "mcp_on_new_machine"]


def minimum_cost_path(
    machine: PPAMachine,
    W,
    d: int,
    *,
    zero_diagonal: str = "require",
    max_iterations: int | None = None,
    min_routine=ppa_min,
    selected_min_routine=ppa_selected_min,
    engine: str = "auto",
) -> MCPResult:
    """Compute minimum cost paths from every vertex to destination *d*.

    Parameters
    ----------
    machine
        An ``n x n`` :class:`PPAMachine`; ``n`` must equal the vertex count.
    W
        Weight matrix (see :func:`repro.core.graph.normalize_weights` for
        the accepted forms and preconditions).
    d
        Destination vertex index.
    zero_diagonal
        Forwarded to the weight normaliser (``"require"``/``"set"``).
    max_iterations
        Safety valve for malformed inputs; defaults to ``n`` (the loop
        provably converges within ``n - 1`` productive iterations plus the
        final no-change round).
    min_routine, selected_min_routine
        The bus reduction implementations — the paper's bit-serial routines
        by default; :mod:`repro.core.variants` injects the word-parallel
        ones for ablation A7.
    engine
        ``"auto"`` (default) runs the ``compiled`` analytic tier (its
        kernel chosen by the plane's density) whenever the machine is
        eligible (no fault plan, span tracer, bus trace or non-default
        reduction routines) and the faithful cycle engine otherwise;
        ``"cycle"``/``"fused"``/
        ``"compiled"`` force one (the analytic tiers raise
        :class:`~repro.errors.EngineError` on an ineligible machine). All
        engines return bit-identical results and counters; see
        :mod:`repro.engine`.

    Returns
    -------
    MCPResult
        Costs (``SOW``), successors (``PTN``), iteration count and machine
        counter deltas for this run.
    """
    choice = resolve_engine(
        machine,
        engine,
        min_routine=min_routine,
        selected_min_routine=selected_min_routine,
    )
    if choice.compiled:
        from repro.engine.compiled import compiled_minimum_cost_path

        return compiled_minimum_cost_path(
            machine,
            W,
            d,
            zero_diagonal=zero_diagonal,
            max_iterations=max_iterations,
        )
    if choice.fused:
        from repro.engine.fused import fused_minimum_cost_path

        return fused_minimum_cost_path(
            machine,
            W,
            d,
            zero_diagonal=zero_diagonal,
            max_iterations=max_iterations,
        )
    # Every plane of the listing is a word plane (see new_parallel).
    word = machine.word_dtype
    Wm = normalize_weights(W, machine, zero_diagonal=zero_diagonal)
    Wm = Wm.astype(word)
    n = machine.n
    if not (0 <= d < n):
        raise GraphError(f"destination {d} outside [0, {n})")
    if max_iterations is None:
        max_iterations = n + 1

    before = machine.counters.snapshot()
    SOUTH, WEST = Direction.SOUTH, Direction.WEST
    tele = machine.telemetry

    with tele.span("mcp", arch="ppa", n=n, d=d):
        with tele.span("mcp.init"):
            ROW = machine.row_index
            COL = machine.col_index.astype(word)
            row_d = ROW == d
            diag = ROW == COL
            col_last = COL == (n - 1)
            machine.count_alu(3)

            SOW = machine.new_parallel(0, word)
            PTN = machine.new_parallel(0, word)
            MIN_SOW = machine.new_parallel(0, word)

            # Statements 4-7: initialise the d-th row with 1-edge paths.
            #
            # The listing reads ``SOW = W`` under ``where (ROW == d)``,
            # which loads w[d, i] — the weight *from* d — into SOW[d, i];
            # the DP needs w[i, d] (the 1-edge cost from i *to* d), so the
            # printed statement is only correct for symmetric W. For
            # directed graphs the d-th *column* must be transposed onto the
            # d-th row, which the PPA does with two broadcasts: fan column
            # d out along the rows, then fan the diagonal down the columns
            # (see DESIGN.md, "Init transposition").
            col_d = COL == d
            machine.count_alu()
            # (i, j) <- w[i, d]
            w_to_d = machine.broadcast(Wm, Direction.EAST, col_d)
            # (i, j) <- w[j, d]
            transposed = machine.broadcast(w_to_d, SOUTH, diag)
            with machine.where(row_d):
                machine.store(SOW, transposed)
                machine.store(PTN, d)

        iterations = 0
        converged = False
        while not converged:
            iterations += 1

            with tele.span("mcp.iteration", k=iterations):
                # Statements 9-13.
                with machine.where(~row_d):
                    with tele.span("mcp.broadcast"):
                        candidates = machine.sat_add(
                            machine.broadcast(SOW, SOUTH, row_d), Wm
                        )
                        machine.store(SOW, candidates)
                    with tele.span("mcp.min"):
                        machine.store(
                            MIN_SOW, min_routine(machine, SOW, WEST, col_last)
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

                # Statements 14-19. Only row d can change under the
                # where(row_d) store mask, so OLD_SOW materialises just
                # that row instead of copying (and comparing) the whole
                # plane — the charged cost (one ALU op for the copy, one
                # for the compare) is exactly what the full-plane version
                # charged, since a plane-wide SIMD op costs one instruction
                # regardless of how many PEs store.
                with tele.span("mcp.writeback"):
                    with machine.where(row_d):
                        OLD_ROW = SOW[d].copy()
                        machine.count_alu()
                        machine.store(
                            SOW, machine.broadcast(MIN_SOW, SOUTH, diag)
                        )
                        changed = np.zeros(SOW.shape, dtype=bool)
                        changed[d] = SOW[d] != OLD_ROW
                        machine.count_alu()
                        with machine.where(changed):
                            machine.store(
                                PTN, machine.broadcast(PTN, SOUTH, diag)
                            )

                # Statement 20: controller-level convergence test.
                with tele.span("mcp.convergence"):
                    converged = not machine.global_or(changed & row_d)

            if not converged and iterations >= max_iterations:
                raise GraphError(
                    f"MCP did not converge within {max_iterations} "
                    "iterations; the input violates the algorithm's "
                    "preconditions"
                )

    return MCPResult(
        destination=d,
        sow=SOW[d].copy(),
        ptn=PTN[d].copy(),
        iterations=iterations,
        maxint=machine.maxint,
        counters=machine.counters.diff(before),
    )


def mcp_on_new_machine(W, d: int, *, word_bits: int = 16, **kwargs) -> MCPResult:
    """Convenience wrapper: size a fresh machine to *W* and run MCP."""
    n = np.asarray(W).shape[0]
    machine = PPAMachine(PPAConfig(n=n, word_bits=word_bits))
    return minimum_cost_path(machine, W, d, **kwargs)
