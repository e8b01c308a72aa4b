"""The compiled MCP engine tier: edge-list and cache-blocked kernels.

The engine ``auto`` resolves to on every eligible machine (see
:mod:`repro.engine.select`). Statement 10 of the paper's loop,
``SOW_id <- min_j(w_ij + SOW_jd)``, only does useful work where an edge
``i -> j`` exists, so the tier picks its relaxation kernel per engine
call from the weight plane it is handed and the lanes it runs: the
**edge list** for a shared ``(n, n)`` plane whose density — the share of
its ``n x n`` entries below MAXINT, zero diagonal included — is below
:data:`EDGE_LIST_MAX_DENSITY` and whose packed key fits
(:func:`edge_list`), relaxed row by row (:func:`edge_relax`) below
:data:`LANE_MINOR_MIN_LANES` lanes and over its **jagged layout**
(:func:`jagged_relax`) from there; the **dense tiles**
(:func:`blocked_relax`) for every other plane: denser shared planes,
per-lane ``(B, n, n)`` stacks, and words too wide for the key.

* **Edge list.** The plane's entries below MAXINT are gathered once per
  engine call, in row-major (CSR) order, as packed keys
  ``(w << s) | j`` with ``s = bit_length(n - 1)``. One round gathers
  ``(sow[j] << s) + key`` per entry — ``((sow[j] + w) << s) | j`` — and
  one ``np.minimum.reduceat`` over the row segments yields both each
  row's minimum (``key >> s``) and its smallest-index argmin
  (``key & (2**s - 1)``), the bit-serial ``selected_min`` tie-break.
  Rows whose minimum reaches MAXINT (every candidate saturated, or no
  entry at all) report ``(MAXINT, 0)``, which is exactly what the dense
  kernels report there: column 0's candidate is MAXINT too. The key is
  exact while ``word_bits + 1 + s <= 63`` (the unclipped sum of two
  words needs one carry bit); wider configurations take the dense tiles.
  Lanes are chunked so one ``lanes x nnz`` gather stays near 1 MiB.
* **Jagged layout.** The batched loop keeps its state lane-minor
  (:mod:`repro.engine._loop`): ``sow.T`` is an ``(n, B)`` C-contiguous
  block, one contiguous lane vector per vertex. :func:`jagged_layout`
  reorders the edge list once per engine call: rows by entry count,
  longest first, and slot ``k`` holding the ``k``-th entry of every row
  with more than ``k`` — a prefix of the ordered rows. One slot is three
  whole-array calls — take the rows' lane vectors, add the keys, take
  the minimum into the prefix — so a round is ~3 calls per entry of the
  longest row, whatever the lane count. A minimum over packed keys is
  order-free, so the tie-break survives the reordering, and rows with no
  entry read a spare row that stays at the saturated key. Keys are int32
  whenever ``word_bits + 1 + s <= 31``, else int64.
* **Dense tiles.** The candidate block ``sow[..., None, :] + W[i0:i1]``
  is built one ``lanes x rows x n`` tile at a time, sized to ~1 MiB
  (:func:`row_block`, :func:`lane_block`); the argmin and the minimum
  it points at are read while the tile is still hot. numpy's ``argmin``
  is first-occurrence within a tile and tiles are visited in index
  order, so the tie-break is the fused kernel's, bit for bit. Clipping
  at MAXINT is left to the end, like the edge list's: below MAXINT it
  changes no minimum, and a row whose minimum reaches it reports
  ``(MAXINT, 0)``.

Kernels that read the state lanes-outer (the row-by-row list, the dense
tiles, ``fused``) copy the loop's lane-minor state into rows themselves;
at one lane both orders are the same bytes.

A caller that solves one plane many times prepares it once: a
:class:`PreparedPlane` holds the normalised plane and its edge list
(``None`` when the dense tiles run), both read-only, and every engine
entry point accepts it wherever it accepts a raw weight array, skipping
normalisation and the list's build. The lifetime rule is one immutable
list per plane: nothing writes into either after construction, so
compute threads share them and forked shard workers inherit them. A raw
array still gets a fresh normalisation and list per engine call, and the
jagged layout is derived from the list once per engine call
(:func:`relax_kernel`).

Counters are **replayed** from the same per-configuration analytic cost
vectors as the fused engine (:mod:`repro.engine.costs`), through the same
shared loop (:mod:`repro.engine._loop`): SOW/PTN/iteration counts, the
scalar counter book and every per-lane serial-equivalent ledger are
bit-identical to both the ``cycle`` and ``fused`` engines, whichever
kernel ran. The differential suites in ``tests/engine/`` pin this on
both sides of the density threshold.

Process-parallel APSP destination sharding rides on this tier — see
:mod:`repro.engine.shard`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.graph import normalize_weights
from repro.core.result import MCPResult
from repro.engine._loop import run_analytic_batched_mcp, run_analytic_mcp
from repro.engine.select import resolve_engine
from repro.errors import GraphError
from repro.ppa.machine import PPAMachine

__all__ = [
    "EDGE_LIST_MAX_DENSITY",
    "LANE_MINOR_MIN_LANES",
    "EdgeList",
    "JaggedEdges",
    "PreparedPlane",
    "edge_list",
    "edge_relax",
    "jagged_layout",
    "jagged_relax",
    "row_block",
    "lane_block",
    "blocked_relax",
    "relax_kernel",
    "compiled_kernel_info",
    "compiled_minimum_cost_path",
    "compiled_batched_minimum_cost_path",
]

#: Target byte size of one candidate tile (``lanes x rows x n`` int64) and
#: of one edge-list gather (``lanes x nnz``). ~1 MiB keeps it L2-resident
#: on every CPU this is likely to meet.
_BLOCK_TARGET_BYTES = 1 << 20

#: Floor on rows per tile: below this the Python loop overhead dominates.
_MIN_BLOCK_ROWS = 16

#: Plane density (entries below MAXINT over ``n**2``) from which the dense
#: tiles replace the edge list. Measured on a 2-vCPU Xeon (numpy 2.4), one
#: round at ``n = 256``/``512``: with 64-256 lanes the edge list wins up to
#: density ~0.5-0.75; a one-lane solve must also repay the list's build
#: (about two dense rounds at density 0.5) in its few rounds, and there the
#: crossover is ~0.3-0.4 (docs/performance.md, "Choosing an engine").
EDGE_LIST_MAX_DENSITY = 0.4

#: Lanes from which an edge-list call relaxes lane-minor state over the
#: list's jagged layout (:func:`jagged_relax`) instead of row segments
#: (:func:`edge_relax`). Measured on a 2-vCPU Xeon (numpy 2.4) at
#: ``n = 256``: on one thread the jagged kernel wins from ~32 lanes; under
#: the service's 8 compute threads it loses at 16-32 lanes (its ~80 short
#: numpy calls per round each drop and retake the GIL), ties at 64 and
#: wins at 128 (docs/performance.md, "The compiled tier's kernel rule").
LANE_MINOR_MIN_LANES = 64

#: Widest packed key the jagged kernel holds in int32 (the sign bit stays
#: clear).
_NARROW_KEY_BITS = 31


def row_block(batch: int, n: int) -> int:
    """Rows per candidate tile for a ``(batch, n)`` state relaxation.

    Sized so one ``batch x rows x n`` int64 tile is ~`_BLOCK_TARGET_BYTES`,
    floored at ``_MIN_BLOCK_ROWS`` and capped at ``n``; when the floor
    wins, :func:`lane_block` splits the lanes instead. Every block size is
    bit-identical.
    """
    rows = _BLOCK_TARGET_BYTES // (max(1, batch) * max(1, n) * 8)
    return min(max(_MIN_BLOCK_ROWS, int(rows)), n)


def lane_block(batch: int, n: int) -> int:
    """Lanes per candidate tile: as many as keep one
    ``lanes x row_block(batch, n) x n`` tile within the byte budget."""
    rows = row_block(batch, n)
    lanes = _BLOCK_TARGET_BYTES // (rows * max(1, n) * 8)
    return max(1, min(int(lanes), batch))


def _relax_numpy_blocked(sow: np.ndarray, W: np.ndarray, maxint: int):
    """Blocked pure-numpy relaxation over ``lanes x rows`` tiles.

    ``sow`` is ``(B, n)``; ``W`` is ``(n, n)`` (shared across lanes) or
    ``(B, n, n)`` (per lane). Returns ``(new_sow, arg)`` with ``arg`` the
    smallest-index argmin per row — numpy's ``argmin`` is first-occurrence
    within a tile, and tiles are visited in index order, so the global
    tie-break matches the fused kernel exactly.
    """
    B, n = sow.shape
    best = np.empty((B, n), dtype=np.int64)
    arg = np.empty((B, n), dtype=np.int64)
    rows = row_block(B, n)
    lanes = lane_block(B, n)
    for b0 in range(0, B, lanes):
        b1 = min(b0 + lanes, B)
        sow_b = sow[b0:b1, None, :]  # broadcast against each row tile
        for i0 in range(0, n, rows):
            i1 = min(i0 + rows, n)
            tile = W[i0:i1] if W.ndim == 2 else W[b0:b1, i0:i1, :]
            # Unclipped sums: clipping at MAXINT only matters where the
            # row minimum reaches it, and that is fixed up once below.
            cand = sow_b + tile
            a = cand.argmin(axis=-1)
            arg[b0:b1, i0:i1] = a
            best[b0:b1, i0:i1] = np.take_along_axis(
                cand, a[..., None], axis=-1
            )[..., 0]
    # A saturated row's clipped candidates all equal MAXINT, whose first
    # occurrence is column 0.
    saturated = best >= maxint
    best[saturated] = maxint
    arg[saturated] = 0
    return best, arg


def blocked_relax(sow: np.ndarray, W: np.ndarray, maxint: int):
    """The dense-tile relaxation kernel. Accepts the same shapes as the
    fused kernel — ``(n,)`` or ``(B, n)`` state against ``(n, n)`` or
    ``(B, n, n)`` weights — and returns bit-identical ``(new_sow, arg)``.
    Tiles read the state lanes-outer, so lane-minor state is copied.
    """
    if sow.ndim == 1:
        best, arg = _relax_numpy_blocked(sow[None, :], W, maxint)
        return best[0], arg[0]
    return _relax_numpy_blocked(np.ascontiguousarray(sow), W, maxint)


class EdgeList(NamedTuple):
    """A shared plane's entries below MAXINT, row-major, as packed keys."""

    #: Column bits of a packed key: ``bit_length(n - 1)``.
    shift: int
    #: ``(nnz,)`` column of each entry.
    cols: np.ndarray
    #: ``(nnz,)`` packed entry ``(w << shift) | col``.
    keys: np.ndarray
    #: Rows with at least one entry, or ``None`` when every row has one.
    rows: np.ndarray | None
    #: First entry of each row in ``rows`` (of every row when ``None``).
    starts: np.ndarray


def edge_list(W: np.ndarray, maxint: int) -> EdgeList | None:
    """The edge list :func:`relax_kernel` relaxes *W* over, or ``None``
    when the dense tiles run instead.

    ``None`` for a per-lane ``(B, n, n)`` stack, for a plane whose density
    reaches :data:`EDGE_LIST_MAX_DENSITY`, and when a packed key cannot
    hold a word sum plus a column index (``word_bits + 1 + s > 63``).
    """
    if W.ndim != 2:
        return None
    n = int(W.shape[0])
    shift = (n - 1).bit_length()
    if int(maxint).bit_length() + 1 + shift > 63:
        return None
    mask = W < maxint
    if np.count_nonzero(mask) >= EDGE_LIST_MAX_DENSITY * n * n:
        return None
    flat = np.flatnonzero(mask)
    row_base = np.arange(0, n * n, n)
    starts = np.searchsorted(flat, row_base)
    counts = np.diff(starts, append=flat.size)
    cols = flat - np.repeat(row_base, counts)
    keys = (np.ravel(W)[flat] << shift) | cols
    if counts.all():
        return EdgeList(shift, cols, keys, None, starts)
    rows = np.flatnonzero(counts)
    return EdgeList(shift, cols, keys, rows, starts[rows])


class PreparedPlane:
    """A weight plane normalised once, with the edge list the compiled
    tier relaxes it over — both read-only.

    Built from a raw ``(n, n)`` weight array for one machine geometry
    (grid side and word width): the plane is
    :func:`~repro.core.graph.normalize_weights`' output and ``edges`` is
    :func:`edge_list` of it, ``None`` when the dense tiles run. Every
    array of both has ``flags.writeable = False``, and the attributes
    cannot be rebound, so the list always matches the plane. Engines
    given one skip normalisation and the list's build; the relaxation
    kernel still receives the plane itself, ``W``.
    """

    __slots__ = ("W", "edges", "maxint")

    W: np.ndarray
    edges: EdgeList | None
    maxint: int

    def __init__(self, W, machine: PPAMachine, *,
                 zero_diagonal: str = "require"):
        plane = normalize_weights(W, machine, zero_diagonal=zero_diagonal)
        edges = edge_list(plane, machine.maxint)
        for array in (plane,) if edges is None else (plane, *edges[1:]):
            if array is not None:
                array.flags.writeable = False
        object.__setattr__(self, "W", plane)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "maxint", machine.maxint)

    def __setattr__(self, name, value):
        raise AttributeError("a PreparedPlane is immutable")

    def __delattr__(self, name):
        raise AttributeError("a PreparedPlane is immutable")

    def for_machine(self, machine: PPAMachine) -> np.ndarray:
        """The plane, once *machine* is known to have its grid side and
        MAXINT (the geometry it was normalised for)."""
        machine.require_square_fit(int(self.W.shape[0]))
        if machine.maxint != self.maxint:
            raise GraphError(
                f"plane was prepared for MAXINT={self.maxint}, machine "
                f"has MAXINT={machine.maxint}"
            )
        return self.W


def edge_relax(sow: np.ndarray, edges: EdgeList, maxint: int):
    """One relaxation over *edges* — ``(n,)`` or ``(B, n)`` state — with
    the dense kernels' ``(new_sow, arg)``, bit for bit."""
    serial = sow.ndim == 1
    sow2 = sow[None, :] if serial else sow
    B, n = sow2.shape
    shift = edges.shift
    # Every key at or above this one decodes to MAXINT, and the dense
    # kernels report (MAXINT, column 0) there: clip onto it. It is also
    # the key of a row with no entry.
    saturated = maxint << shift
    packed = (
        np.empty((B, n), dtype=np.int64)
        if edges.rows is None
        else np.full((B, n), saturated, dtype=np.int64)
    )
    nnz = int(edges.cols.size)
    if nnz:
        # lanes-outer: each lane's gather reads one contiguous row
        sow_key = np.left_shift(sow2, shift, order="C")
        lanes = min(B, max(1, _BLOCK_TARGET_BYTES // (8 * nnz)))
        # One gather buffer serves every lane chunk of the call.
        gather = np.empty((lanes, nnz), dtype=sow_key.dtype)
        for b0 in range(0, B, lanes):
            b1 = min(b0 + lanes, B)
            cand = gather[: b1 - b0]
            # edge_list builds in-range columns, so "clip" never clips; it
            # spares "raise" its bounds-checked copy of the output.
            np.take(sow_key[b0:b1], edges.cols, axis=1, out=cand, mode="clip")
            cand += edges.keys
            row_min = np.minimum.reduceat(cand, edges.starts, axis=1)
            if edges.rows is None:
                packed[b0:b1] = row_min
            else:
                packed[b0:b1, edges.rows] = row_min
    np.minimum(packed, saturated, out=packed)
    best = packed >> shift
    arg = packed & ((1 << shift) - 1)
    if serial:
        return best[0], arg[0]
    return best, arg


class JaggedEdges(NamedTuple):
    """An :class:`EdgeList` in jagged-diagonal order, for lane-minor state.

    Rows are ordered by entry count, longest first, and slot ``k`` holds
    the ``k``-th entry of every row with more than ``k`` entries — a
    prefix of the ordered rows — so a slot relaxes as whole-array ops
    over ``(rows, lanes)`` blocks.
    """

    #: Column bits of a packed key: ``bit_length(n - 1)``.
    shift: int
    #: Per slot, its columns ``(r,)`` and packed keys ``(r, 1)``, for the
    #: first ``r`` ordered rows.
    slots: tuple[tuple[np.ndarray, np.ndarray], ...]
    #: ``(n,)`` ordered position of each row; rows with no entry point
    #: one past the last ordered row, which stays saturated.
    position: np.ndarray
    #: Rows with at least one entry.
    rows: int
    #: int32 when ``word_bits + 1 + shift <= 31``, else int64.
    dtype: np.dtype


def jagged_layout(edges: EdgeList, n: int, maxint: int) -> JaggedEdges:
    """The jagged-diagonal order of an ``(n, n)`` plane's *edges*.

    Derived from the list alone, never from the plane. Keys narrow to
    int32 when a word sum, its carry bit and a column index fit in 31
    bits.
    """
    shift = edges.shift
    nnz = int(edges.cols.size)
    rows = np.arange(n) if edges.rows is None else edges.rows
    counts = np.diff(edges.starts, append=nnz)
    order = np.argsort(-counts, kind="stable")
    starts, counts = edges.starts[order], counts[order]
    dtype = np.dtype(
        np.int32
        if int(maxint).bit_length() + 1 + shift <= _NARROW_KEY_BITS
        else np.int64
    )
    keys = edges.keys.astype(dtype)
    # Slot k covers the ordered rows with more than k entries.
    widths = np.searchsorted(-counts, -np.arange(counts.max(initial=0)))
    slots = []
    for k, width in enumerate(widths.tolist()):
        at = starts[:width] + k
        slots.append((edges.cols[at], keys[at][:, None]))
    position = np.full(n, rows.size, dtype=np.int64)
    position[rows[order]] = np.arange(rows.size)
    return JaggedEdges(shift, tuple(slots), position, int(rows.size), dtype)


def jagged_relax(sow: np.ndarray, layout: JaggedEdges, maxint: int):
    """One relaxation over *layout* with the dense kernels' ``(new_sow,
    arg)``, bit for bit.

    The ``(B, n)`` state is read lane-minor — ``sow.T`` is the ``(n, B)``
    block the loop keeps C-contiguous — and ``(n,)`` state as one lane.
    A slot takes its rows' lane vectors, adds the keys and takes the
    minimum into the prefix; a minimum over packed keys is order-free,
    so the smallest-index tie-break holds in any slot order.
    """
    serial = sow.ndim == 1
    state = sow[:, None] if serial else sow.T
    shift = layout.shift
    saturated = maxint << shift
    sow_key = np.left_shift(state, shift, dtype=layout.dtype, order="C")
    best = np.empty((layout.rows + 1, sow_key.shape[1]), dtype=layout.dtype)
    best[layout.rows] = saturated
    gather = np.empty_like(best)
    for k, (cols, keys) in enumerate(layout.slots):
        # slot 0 covers every row with an entry: it seeds the minima
        cand = (gather if k else best)[: cols.size]
        # jagged_layout takes in-range columns, so "clip" never clips
        np.take(sow_key, cols, axis=0, out=cand, mode="clip")
        cand += keys
        if k:
            head = best[: cols.size]
            np.minimum(head, cand, out=head)
    np.minimum(best, saturated, out=best)
    packed = np.take(best, layout.position, axis=0)
    new_sow = np.right_shift(packed, shift, dtype=np.int64)
    arg = np.bitwise_and(packed, (1 << shift) - 1, dtype=np.int64)
    if serial:
        return new_sow[:, 0], arg[:, 0]
    return new_sow.T, arg.T


def relax_kernel(W=None):
    """A fresh relaxation kernel for one engine call on weights *W*.

    On the first round it sees a plane, it builds that plane's
    :func:`edge_list` (or settles on the dense tiles) and keeps the choice
    for the rest of the call; with at least :data:`LANE_MINOR_MIN_LANES`
    lanes it also derives the list's :func:`jagged_layout` once. When *W*
    is a :class:`PreparedPlane`, the kernel starts with its plane and list
    and builds no list.
    """
    plane: np.ndarray | None = None
    edges: EdgeList | None = None
    jagged: JaggedEdges | None = None
    if isinstance(W, PreparedPlane):
        plane, edges = W.W, W.edges

    def relax(sow: np.ndarray, W: np.ndarray, maxint: int):
        nonlocal plane, edges, jagged
        if W is not plane:
            plane, edges, jagged = W, edge_list(W, maxint), None
        if edges is None:
            return blocked_relax(sow, W, maxint)
        lanes = 1 if sow.ndim == 1 else sow.shape[0]
        if lanes < LANE_MINOR_MIN_LANES:
            return edge_relax(sow, edges, maxint)
        if jagged is None:
            jagged = jagged_layout(edges, int(W.shape[0]), maxint)
        return jagged_relax(sow, jagged, maxint)

    return relax


def compiled_kernel_info() -> dict:
    """Introspection for docs/CI: the kernel-selection constants.

    ``narrow_key_max_bits`` is the key-width rule: the jagged kernel
    packs int32 keys when ``word_bits + 1 + bit_length(n - 1)`` is at
    most this, and int64 keys otherwise.
    """
    return {
        "backend": "numpy",
        "edge_list_max_density": EDGE_LIST_MAX_DENSITY,
        "lane_minor_min_lanes": LANE_MINOR_MIN_LANES,
        "narrow_key_max_bits": _NARROW_KEY_BITS,
        "block_target_bytes": _BLOCK_TARGET_BYTES,
    }


def compiled_minimum_cost_path(
    machine: PPAMachine,
    W,
    d: int,
    *,
    zero_diagonal: str = "require",
    max_iterations: int | None = None,
) -> MCPResult:
    """Single-destination MCP on the compiled tier.

    Bit-identical to both ``engine="cycle"`` and ``engine="fused"`` in
    result *and* counters; callers normally reach it through
    ``engine="auto"``/``"compiled"`` dispatch rather than directly.
    """
    resolve_engine(machine, "compiled")  # raises EngineError when ineligible
    return run_analytic_mcp(
        machine,
        W,
        d,
        relax_kernel(W),
        zero_diagonal=zero_diagonal,
        max_iterations=max_iterations,
    )


def compiled_batched_minimum_cost_path(
    machine: PPAMachine,
    W,
    destinations,
    *,
    zero_diagonal: str = "require",
    max_iterations: int | None = None,
):
    """Batched multi-destination MCP on the compiled tier.

    Same contract as :func:`repro.engine.fused.fused_batched_minimum_cost_path`
    — per-lane SOW/PTN/iterations, batched-stream scalar counters and every
    lane's serial-equivalent ledger bit-identical to the cycle engine —
    computed through the edge-list or dense-tile kernel.
    """
    resolve_engine(machine, "compiled")  # raises EngineError when ineligible
    return run_analytic_batched_mcp(
        machine,
        W,
        destinations,
        relax_kernel(W),
        zero_diagonal=zero_diagonal,
        max_iterations=max_iterations,
    )
