"""Incremental graph updates: sparse edge deltas, sound invalidation.

A full ``put_graph`` invalidates every cached column and APSP plane for
the graph. That is wasteful for the common production shape — a large
graph receiving a trickle of edge updates — because a changed edge
``(u, v)`` can only affect destination columns whose *current* answer
actually routes cost or tree structure through it. This module supplies
the two pieces the service's delta path is built from, both over
``(n, k)`` planes of cached columns (``dist[x, j]`` is the cost from
``x`` to the column's destination ``dests[j]``) — the service stacks its
cached columns into one such plane, and a cached APSP answer already is
one:

* :func:`apply_edge_delta` — decode the wire form (``[[u, v, w]]``,
  ``w = null`` removes the edge) and produce the new weight grid;
* :func:`dirty_destinations` — the O(|delta| * k) **conservative-exact**
  per-column invalidation test (see below).

The service re-solves every dirtied column cold.

Invalidation soundness
----------------------
For destination ``d`` let ``sow``/``ptn`` be the cached (verified)
answer under the old weights. For each changed edge ``(u, v)`` with new
weight ``w'`` (``maxint`` when removed) the column is marked dirty iff

1. ``sat(w' + sow[v]) < sow[u]`` — the edge now offers a strictly
   better first hop out of ``u``, so the cached cost is an
   overestimate; or
2. ``ptn[u] == v`` and ``sat(w' + sow[v]) != sow[u]`` — the cached
   successor tree routes ``u`` through this edge and the change broke
   the cost telescope through it.

If neither fires for any changed edge, the cached ``(sow, ptn)`` still
satisfies every check in :func:`repro.serve.oracle.verify_mcp` under
the *new* weights: the fixpoint minimum at ``u`` is preserved (any old
minimizer that was a changed edge must be ``ptn[u]`` itself, pinned by
test 2; other terms are untouched, and test 1 rules out new, better
terms), the successor telescope is intact at every hop, and the
termination walk is unchanged. The test is also *exact* in the useful
direction: a clean verdict is a proof, so surviving columns are served
(with a bumped version) without recomputation — this "delta
invalidation never serves a stale column" property is what
``tests/serve/test_delta.py`` pins against the oracle. A kept column
is a verified answer, not always the cold solve's: where the delta makes
a new first hop tie the cached one, a cold solve may pick the other
successor and run a different number of rounds, while a kept column
keeps its old ``ptn`` and ``iterations``.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import check_word_headroom
from repro.errors import GraphError

__all__ = [
    "apply_edge_delta",
    "decode_edges",
    "dirty_destinations",
]


def decode_edges(edges, n: int, maxint: int) -> list[tuple[int, int, int]]:
    """Validate the wire edge list into ``(u, v, w)`` triples.

    ``w`` arrives as a non-negative int (new weight) or ``None`` (remove
    the edge -> ``maxint`` sentinel). Self-edges are rejected: the
    algorithm's zero diagonal is structural, not data. New weights are
    held to ``put_graph``'s headroom rule
    (:func:`~repro.core.graph.check_word_headroom`); the stored graph
    already meets it, so checking the delta's own finite weights is
    enough.
    """
    if not isinstance(edges, (list, tuple)) or not edges:
        raise GraphError("edges must be a non-empty list of [u, v, w]")
    out: list[tuple[int, int, int]] = []
    for item in edges:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise GraphError(f"edge entry must be [u, v, w], got {item!r}")
        u, v, w = item
        try:
            u, v = int(u), int(v)
        except (TypeError, ValueError):
            raise GraphError(f"edge endpoints must be ints, got {item!r}") \
                from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) outside [0, {n})^2")
        if u == v:
            raise GraphError(
                f"edge ({u}, {u}) touches the diagonal; self-costs are "
                "fixed at 0"
            )
        if w is None:
            w = maxint
        else:
            try:
                w = int(w)
            except (TypeError, ValueError):
                raise GraphError(
                    f"edge weight must be an int or null, got {item!r}"
                ) from None
            if not (0 <= w <= maxint):
                raise GraphError(
                    f"edge ({u}, {v}) weight {w} outside [0, {maxint}]"
                )
        out.append((u, v, w))
    check_word_headroom(n, max((w for _, _, w in out if w < maxint),
                               default=0), maxint)
    return out


def apply_edge_delta(W: np.ndarray, edges, maxint: int) -> np.ndarray:
    """The new weight grid after applying decoded ``(u, v, w)`` triples.

    Later entries win when a delta names the same edge twice (the wire
    order is the client's statement of intent).
    """
    Wn = np.array(W, dtype=np.int64, copy=True)
    for u, v, w in edges:
        Wn[u, v] = w
    return Wn


def _sat(x: np.ndarray, maxint: int) -> np.ndarray:
    return np.minimum(x, maxint)


def dirty_destinations(edges, dist: np.ndarray, succ: np.ndarray,
                       maxint: int) -> np.ndarray:
    """Boolean ``(k,)`` mask of the cached columns a delta can invalidate.

    ``dist``/``succ`` are an ``(n, k)`` plane of cached columns, laid
    out as in :class:`repro.core.apsp.APSPResult` (a full APSP plane is
    the ``k = n`` case): one pass of the two per-column tests per
    changed edge. The test reads no destination index, so any subset
    of columns stacks.
    """
    dist = np.asarray(dist, dtype=np.int64)
    succ = np.asarray(succ, dtype=np.int64)
    dirty = np.zeros(dist.shape[1], dtype=bool)
    for u, v, w in edges:
        through = _sat(np.int64(w) + dist[v, :], maxint)
        dirty |= through < dist[u, :]
        dirty |= (succ[u, :] == v) & (through != dist[u, :])
    return dirty

