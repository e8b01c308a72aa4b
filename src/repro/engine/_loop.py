"""The shared analytic-cost MCP loop.

Both analytic tiers — ``compiled`` (edge-list or cache-blocked dense
kernels, chosen per call by the plane's density and the lane count) and
``fused`` (the whole-array dense reference) — run the *same* control
flow: init row-``d`` state, relax until convergence, charge counters by
replaying the per-configuration cost vector (:mod:`repro.engine.costs`).
The only difference between the tiers is the relaxation kernel, so the
loop lives here once, parameterised by a ``relax(sow, W, maxint)``
callable that it calls once per round with the normalised plane, and
the per-tier modules stay thin. The weights are a raw array, normalised
per call, or a :class:`~repro.engine.compiled.PreparedPlane`, whose
read-only plane is used as it is. A kernel may keep per-plane state for
the duration of one call (the compiled tier's edge list, unless the
prepared plane brought it, and its jagged layout); the loop never caches
anything across calls. Counters are replayed once per call, after the
last round: ``init`` up front, then ``rounds x iteration`` on the scalar
book and ``iterations[b] x iteration`` on lane ``b``
(:mod:`repro.engine.costs`).

The batched loop keeps its ``(B, n)`` state **lane-minor**: ``sow.T``
and ``ptn.T`` are C-contiguous, so a vertex's lanes sit side by side,
and every update writes in place, which keeps that order. Kernels still
receive ``(B, n)``-shaped state; the compiled tier's jagged kernel reads
it as the ``(n, B)`` block, and kernels that read it lanes-outer make
their own rows. At ``B = 1`` both orders are the same bytes.

Anything pinned about the engines' semantics (smallest-index tie-break,
convergence masking, lane ledgers, the ``MIN_SOW[d, d] = 0`` invariant)
is pinned about this loop — the differential suite in ``tests/engine/``
exercises it through both tiers and every compiled kernel.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import normalize_weights
from repro.core.result import MCPResult
from repro.engine.costs import mcp_cost_vector
from repro.errors import GraphError
from repro.ppa.machine import PPAMachine

__all__ = [
    "reconstruct_cold_mcp",
    "run_analytic_mcp",
    "run_analytic_batched_mcp",
    "weight_plane",
]


def weight_plane(W, machine: PPAMachine, zero_diagonal: str) -> np.ndarray:
    """The normalised ``(n, n)`` plane of *W* for *machine*.

    A :class:`~repro.engine.compiled.PreparedPlane` hands over its own
    read-only plane (after a geometry check); anything else is
    normalised afresh.
    """
    # the compiled tier imports this module
    from repro.engine.compiled import PreparedPlane

    if isinstance(W, PreparedPlane):
        return W.for_machine(machine)
    return normalize_weights(W, machine, zero_diagonal=zero_diagonal)


def _times(delta: dict, rounds):
    """*delta* charged *rounds* times (a scalar or a per-lane vector)."""
    return {name: rounds * value for name, value in delta.items()}


def reconstruct_cold_mcp(Wm, sow, d: int, maxint: int):
    """The loop's ``(ptn, iterations)`` for destination *d*, from its SOW.

    The reference derivation of what every engine's MCP loop stores in
    PTN. The loop overwrites ``ptn[v]`` at each round where ``sow[v]``
    changes, so PTN looks trajectory-dependent, but it is a pure function
    of ``(Wm, final SOW, d)``. Write ``fix`` for the final SOW and

        ``M(v) = { u != v : sat(W[v, u] + fix[u]) == fix[v] }``

    for the fixpoint minimizers of ``v``. Because relaxation is monotone
    non-increasing (zero diagonal), ``sow[v]`` changes for the *last* time
    at the round ``h_v`` where it first attains ``fix[v]`` (``h_v = 0``
    when the seed ``W[v, d]`` is already final). At round ``h_v`` the
    argmin the loop stores is taken over candidates built from the
    round-``h_v - 1`` state, whose minimizing columns are exactly the
    ``u in M(v)`` already final (``h_u <= h_v - 1``): any other column
    is strictly above ``fix[u]`` and hence strictly above ``fix[v]``
    (saturation cannot mask this — a saturated candidate is ``maxint``,
    and a vertex with ``fix[v] == maxint`` never changed at all). So

        ``h_v   = 1 + min{ h_u : u in M(v) }``        (v not final at seed)
        ``ptn[v] = smallest u in M(v) with h_u == h_v - 1``

    and the layered sweep below — grow the ``known`` set one round at a
    time, assigning each newly grounded vertex the smallest-index known
    minimizer (``argmax`` over booleans == first ``True`` == the
    bit-serial ``selected_min`` tie-break) — reproduces the loop's PTN
    exactly. The loop runs ``max(h) + 1`` passes (the last pass observes
    no change), giving the iteration count. The differential suite in
    ``tests/engine/`` checks every engine's PTN and iteration count
    against this sweep.

    The sweep checks its input: if *sow* is **not** the fixpoint (say an
    entry below any achievable path cost), every too-low vertex has only
    too-low minimizers, so the sweep stalls before grounding everything
    and raises :class:`~repro.errors.GraphError` instead of fabricating a
    predecessor tree.

    No engine calls it; it stays here under this name because
    ``perfbench/layers.py`` binds it as the ``engine.reconstruct`` layer.
    """
    n = int(sow.shape[0])
    # cand[v, u] = sat(W[v, u] + fix[u]); M is its fixpoint-support mask.
    cand = np.minimum(Wm + sow[None, :], maxint)
    support = cand == sow[:, None]
    np.fill_diagonal(support, False)

    known = sow == Wm[:, d]  # h_v = 0: the cold seed was already final
    known[d] = True
    ptn = np.full(n, d, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    rounds = 0
    while not known.all():
        rounds += 1
        reach = support & known[None, :]
        newly = ~known & reach.any(axis=1)
        if not newly.any() or rounds > n:
            raise GraphError(
                "SOW plane is not the Bellman fixpoint of these weights: "
                "PTN reconstruction failed to ground"
            )
        ptn[newly] = reach[newly].argmax(axis=1)
        depth[newly] = rounds
        known |= newly
    return ptn, int(depth.max()) + 1


def run_analytic_mcp(
    machine: PPAMachine,
    W,
    d: int,
    relax,
    *,
    zero_diagonal: str = "require",
    max_iterations: int | None = None,
) -> MCPResult:
    """Single-destination MCP with counters replayed from the cost vector.

    *relax* is the tier's kernel: ``relax(sow, W, maxint) -> (new_sow,
    arg)`` with ``arg`` the smallest-index argmin per row (the bit-serial
    ``selected_min`` tie-break). Eligibility is the caller's job.
    """
    Wm = weight_plane(W, machine, zero_diagonal)
    n = machine.n
    if not (0 <= d < n):
        raise GraphError(f"destination {d} outside [0, {n})")
    if max_iterations is None:
        max_iterations = n + 1

    before = machine.counters.snapshot()
    cost = mcp_cost_vector(machine.config)
    maxint = machine.maxint

    # Init (statements 4-7 + the directed-graph transposition): row d of
    # SOW holds the 1-edge costs *to* d — column d of W — and PTN holds d.
    machine.apply_counter_delta(cost.init)
    sow = Wm[:, d].copy()
    ptn = np.full(n, d, dtype=np.int64)

    iterations = 0
    converged = False
    try:
        while not converged:
            iterations += 1

            new_sow, arg = relax(sow, Wm, maxint)
            # Node (d, d) never stores into MIN_SOW (statement 11 is masked
            # off row d), so the diagonal writeback always delivers 0 to
            # SOW[d, d].
            new_sow[d] = 0
            changed = new_sow != sow
            # PTN writeback reads the diagonal: PTN[j, j] = arg[j] for
            # j != d, and PTN[d, d] stays d forever (row d never runs
            # statement 12).
            arg[d] = d
            ptn = np.where(changed, arg, ptn)
            sow = new_sow
            converged = not changed.any()

            if not converged and iterations >= max_iterations:
                raise GraphError(
                    f"MCP did not converge within {max_iterations} "
                    "iterations; the input violates the algorithm's "
                    "preconditions"
                )
    finally:
        # every round charges the same delta: replay them all at once,
        # the rounds of a run that fails to converge included
        machine.apply_counter_delta(_times(cost.iteration, iterations))

    return MCPResult(
        destination=d,
        sow=sow.copy(),
        ptn=ptn.copy(),
        iterations=iterations,
        maxint=maxint,
        counters=machine.counters.diff(before),
    )


def run_analytic_batched_mcp(
    machine: PPAMachine,
    W,
    destinations,
    relax,
    *,
    zero_diagonal: str = "require",
    max_iterations: int | None = None,
):
    """Batched multi-destination MCP with replayed counters.

    Bit-identical to :func:`repro.core.batched.batched_minimum_cost_path`
    with ``engine="cycle"``: per-lane SOW/PTN/iterations, the batched-stream
    scalar counter delta *and* every lane's serial-equivalent ledger. Lane
    convergence masking happens on the host: a converged lane's state rows
    freeze and its ledger stops accruing, exactly as in the cycle loop —
    lane ``b`` is charged the ``iterations[b]`` rounds it was live for.
    """
    from repro.core.batched import BatchedMCPResult, _normalize_lane_weights

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
    Wm = _normalize_lane_weights(W, machine, batch, zero_diagonal)
    if max_iterations is None:
        max_iterations = n + 1

    before = machine.counters.snapshot()
    lanes_before = machine.lane_counters.snapshot()
    cost = mcp_cost_vector(machine.config)
    maxint = machine.maxint
    lane_idx = np.arange(batch)

    # Init: every lane charges the init delta (lane mask is all-True),
    # and lane b's row-d state holds column dest[b] of its matrix. The
    # state is lane-minor: (B, n) with sow.T C-contiguous, so a vertex's
    # lanes sit side by side; the updates below are in place and keep it.
    machine.set_active_lanes(None)
    machine.apply_counter_delta(cost.init)
    if Wm.ndim == 2:
        column = Wm[:, dest].T  # (B, n): sow[b, j] = W[j, dest[b]]
    else:
        column = np.take_along_axis(Wm, dest[:, None, None], axis=2)[:, :, 0]
    sow = np.array(column, order="F")
    ptn = np.array(np.broadcast_to(dest[:, None], (batch, n)), order="F")

    iterations = np.zeros(batch, dtype=np.int64)
    active = np.ones(batch, dtype=bool)
    rounds = 0
    try:
        while active.any():
            rounds += 1
            iterations += active

            new_sow, arg = relax(sow, Wm, maxint)
            new_sow[lane_idx, dest] = 0
            arg[lane_idx, dest] = dest
            # The cycle loop gates a converged lane's stores off (its
            # `gate` mask). Ungated stores agree: the lane is a fixpoint
            # of this deterministic per-lane round, so it is recomputed
            # unchanged and never reads as changed again.
            changed = new_sow != sow
            np.copyto(sow, new_sow)
            np.copyto(ptn, arg, where=changed)
            active = changed.any(axis=1)

            if active.any() and rounds >= max_iterations:
                raise GraphError(
                    f"batched MCP did not converge within "
                    f"{max_iterations} iterations; the input violates "
                    "the algorithm's preconditions"
                )
    finally:
        # every round charges the same delta: the batched stream ran
        # `rounds` of them, lane b was live for iterations[b]
        machine.counters.merge(_times(cost.iteration, rounds))
        machine.lane_counters.merge(_times(cost.iteration, iterations))

    return BatchedMCPResult(
        destinations=dest.copy(),
        sow=sow.copy(),
        ptn=ptn.copy(),
        iterations=iterations,
        maxint=maxint,
        counters=machine.counters.diff(before),
        lane_counters=machine.lane_counters.diff(lanes_before),
    )
