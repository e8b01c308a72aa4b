"""The compiled MCP engine tier: edge-list and cache-blocked kernels.

The engine ``auto`` resolves to on every eligible machine (see
:mod:`repro.engine.select`). Statement 10 of the paper's loop,
``SOW_id <- min_j(w_ij + SOW_jd)``, only does useful work where an edge
``i -> j`` exists, so the tier picks its relaxation kernel per engine
call from the weight plane it is handed: the **edge list**
(:func:`edge_relax`) for a shared ``(n, n)`` plane whose density — the
share of its ``n x n`` entries below MAXINT, zero diagonal included — is
below :data:`EDGE_LIST_MAX_DENSITY` and whose packed key fits
(:func:`edge_list`); the **dense tiles** (:func:`blocked_relax`) for
every other plane: denser shared planes, per-lane ``(B, n, n)`` stacks,
and words too wide for the key.

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
* **Dense tiles.** The candidate block ``sow[..., None, :] + W[i0:i1]``
  is built one ``lanes x rows x n`` tile at a time, sized to ~1 MiB
  (:func:`row_block`, :func:`lane_block`); the argmin and the minimum
  it points at are read while the tile is still hot. numpy's ``argmin``
  is first-occurrence within a tile and tiles are visited in index
  order, so the tie-break is the fused kernel's, bit for bit. Clipping
  at MAXINT is left to the end, like the edge list's: below MAXINT it
  changes no minimum, and a row whose minimum reaches it reports
  ``(MAXINT, 0)``.

A caller that solves one plane many times prepares it once: a
:class:`PreparedPlane` holds the normalised plane and its edge list
(``None`` when the dense tiles run), both read-only, and every engine
entry point accepts it wherever it accepts a raw weight array, skipping
normalisation and the list's build. The lifetime rule is one immutable
list per plane: nothing writes into either after construction, so
compute threads share them and forked shard workers inherit them. A raw
array still gets a fresh normalisation and list per engine call
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

import os
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
    "EdgeList",
    "PreparedPlane",
    "edge_list",
    "edge_relax",
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

_BLOCK_ENV = "REPRO_COMPILED_BLOCK"

#: Plane density (entries below MAXINT over ``n**2``) from which the dense
#: tiles replace the edge list. Measured on a 2-vCPU Xeon (numpy 2.4), one
#: round at ``n = 256``/``512``: with 64-256 lanes the edge list wins up to
#: density ~0.5-0.75; a one-lane solve must also repay the list's build
#: (about two dense rounds at density 0.5) in its few rounds, and there the
#: crossover is ~0.3-0.4 (docs/performance.md, "Choosing an engine").
EDGE_LIST_MAX_DENSITY = 0.4


def row_block(batch: int, n: int) -> int:
    """Rows per candidate tile for a ``(batch, n)`` state relaxation.

    Sized so one ``batch x rows x n`` int64 tile is ~`_BLOCK_TARGET_BYTES`,
    floored at ``_MIN_BLOCK_ROWS`` and capped at ``n``; when the floor
    wins, :func:`lane_block` splits the lanes instead. Overridable via the
    ``REPRO_COMPILED_BLOCK`` environment variable (any positive integer) —
    a tuning knob only; every block size is bit-identical.
    """
    override = os.environ.get(_BLOCK_ENV)
    if override:
        return max(1, min(int(override), n))
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
    """
    if sow.ndim == 1:
        best, arg = _relax_numpy_blocked(sow[None, :], W, maxint)
        return best[0], arg[0]
    return _relax_numpy_blocked(sow, W, maxint)


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
        sow_key = sow2 << shift
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


def relax_kernel(W=None):
    """A fresh relaxation kernel for one engine call on weights *W*.

    On the first round it sees a plane, it builds that plane's
    :func:`edge_list` (or settles on the dense tiles) and keeps the choice
    for the rest of the call. When *W* is a :class:`PreparedPlane`, the
    kernel starts with its plane and list and builds nothing.
    """
    plane: np.ndarray | None = None
    edges: EdgeList | None = None
    if isinstance(W, PreparedPlane):
        plane, edges = W.W, W.edges

    def relax(sow: np.ndarray, W: np.ndarray, maxint: int):
        nonlocal plane, edges
        if W is not plane:
            plane, edges = W, edge_list(W, maxint)
        if edges is None:
            return blocked_relax(sow, W, maxint)
        return edge_relax(sow, edges, maxint)

    return relax


def compiled_kernel_info() -> dict:
    """Introspection for docs/CI: the kernel-selection constants."""
    return {
        "backend": "numpy",
        "edge_list_max_density": EDGE_LIST_MAX_DENSITY,
        "block_target_bytes": _BLOCK_TARGET_BYTES,
    }


def compiled_minimum_cost_path(
    machine: PPAMachine,
    W,
    d: int,
    *,
    zero_diagonal: str = "require",
    max_iterations: int | None = None,
    warm_sow=None,
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
        warm_sow=warm_sow,
    )


def compiled_batched_minimum_cost_path(
    machine: PPAMachine,
    W,
    destinations,
    *,
    zero_diagonal: str = "require",
    max_iterations: int | None = None,
    warm_sow=None,
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
        warm_sow=warm_sow,
    )
