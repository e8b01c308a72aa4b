"""The fused analytic-cost MCP engine: the whole-array dense reference.

``auto`` never picks this tier — it resolves to
:mod:`repro.engine.compiled` — but it stays as the explicitly requested
reference: the
differential suites compare against it, BENCH_p17/p18 use it as their
baseline, and rung 3 of the serving tier's degradation ladder falls back
to it.

One relaxation round of the paper's Section 3 loop — row-``d`` broadcast +
saturating add, wired-OR minimum, selected-min PTN recovery, diagonal
writeback, convergence test — collapses into a handful of whole-array
numpy kernels, because the algorithm's *live* state is only the ``d``-th
row of ``SOW``/``PTN`` (everything else is recomputed from it each round):

====================================  =====================================
cycle engine (per round)              fused kernel
====================================  =====================================
broadcast row d + ``sat_add``         ``cand = min(sow[j] + W[i, j], MAXINT)``
``h``-round bit-serial wired-OR min   ``cand.min(axis=-1)``
selected-min over ``COL``             ``cand.argmin(axis=-1)`` (first
                                      occurrence == smallest column index,
                                      the bit-serial tie-break)
diagonal writeback, masked PTN store  ``where(changed, arg, ptn)`` with
                                      ``new_sow[d] = 0`` (the never-stored
                                      ``MIN_SOW[d, d] = 0`` invariant)
controller ``global_or``              ``changed.any()``
====================================  =====================================

Counters are not simulated — they are **replayed**: every round charges
the exact per-iteration delta probed once per machine configuration by
:mod:`repro.engine.costs` (and the init phase charges the probed init
delta). Because one MCP round issues a fixed, data-independent instruction
stream, the replayed totals are bit-identical to the cycle engine's on
*every* ledger: scalar counters, and — via the machine's lane mask — each
lane's serial-equivalent ledger, where lane ``b`` receives ``init +
iterations[b] * iteration`` exactly as the batched cycle engine charges
it. The differential suite in ``tests/engine/`` pins all of this.

The control flow (and the counter replay) is shared with the compiled
tier — see :mod:`repro.engine._loop`; this module contributes only the
whole-array relaxation kernel. :mod:`repro.engine.compiled` contributes
the edge-list and cache-blocked ones.

Eligibility is the caller's job (:func:`repro.engine.select.resolve_engine`
— no fault plan, tracer, bus trace, or non-default reduction routines);
the entry points here re-check and raise :class:`~repro.errors.EngineError`
if invoked directly on an ineligible machine.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import MCPResult
from repro.engine._loop import run_analytic_batched_mcp, run_analytic_mcp
from repro.engine.select import resolve_engine
from repro.ppa.machine import PPAMachine

__all__ = ["fused_minimum_cost_path", "fused_batched_minimum_cost_path"]


def _relax(sow: np.ndarray, W: np.ndarray, maxint: int):
    """One fused relaxation: candidates, row minima, best successors.

    ``sow`` is the row-``d`` state — ``(n,)`` serial or ``(B, n)`` batched;
    ``W`` is ``(n, n)`` (shared) or ``(B, n, n)`` (per lane). Returns
    ``(new_sow, arg)`` where ``arg`` is the smallest-index argmin per row,
    matching the bit-serial ``selected_min`` tie-break over ``COL``.
    """
    # cand[..., i, j] = min(sow[..., j] + W[..., i, j], MAXINT): the cost of
    # "go first to j" from node i — statement 10's broadcast + sat_add,
    # over lanes-outer state (the batched loop keeps it lane-minor).
    sow = np.ascontiguousarray(sow)
    cand = np.minimum(sow[..., None, :] + W, maxint)
    return cand.min(axis=-1), cand.argmin(axis=-1)


def fused_minimum_cost_path(
    machine: PPAMachine,
    W,
    d: int,
    *,
    zero_diagonal: str = "require",
    max_iterations: int | None = None,
    warm_sow=None,
) -> MCPResult:
    """Single-destination MCP on the fused engine.

    Bit-identical to :func:`repro.core.mcp.minimum_cost_path` with
    ``engine="cycle"`` in result *and* counters; callers normally reach it
    through ``engine="fused"`` dispatch rather than directly.
    """
    resolve_engine(machine, "fused")  # raises EngineError when ineligible
    return run_analytic_mcp(
        machine,
        W,
        d,
        _relax,
        zero_diagonal=zero_diagonal,
        max_iterations=max_iterations,
        warm_sow=warm_sow,
    )


def fused_batched_minimum_cost_path(
    machine: PPAMachine,
    W,
    destinations,
    *,
    zero_diagonal: str = "require",
    max_iterations: int | None = None,
    warm_sow=None,
):
    """Batched multi-destination MCP on the fused engine.

    Bit-identical to :func:`repro.core.batched.batched_minimum_cost_path`
    with ``engine="cycle"``: per-lane SOW/PTN/iterations, the batched-stream
    scalar counter delta *and* every lane's serial-equivalent ledger. Lane
    convergence masking happens on the host: a converged lane's state rows
    freeze and its ledger stops accruing, exactly as in the cycle loop.
    """
    resolve_engine(machine, "fused")  # raises EngineError when ineligible
    return run_analytic_batched_mcp(
        machine,
        W,
        destinations,
        _relax,
        zero_diagonal=zero_diagonal,
        max_iterations=max_iterations,
        warm_sow=warm_sow,
    )
