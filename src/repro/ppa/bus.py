"""Bus transaction tracing.

:class:`BusTrace` optionally records every bus transaction a machine issues
(kind, direction, how many Open switches, largest cluster span). Tracing is
off by default — recording allocates — and is enabled per-machine via
``PPAMachine(..., trace=True)`` or temporarily with :meth:`BusTrace.capture`.

Traces back two uses: debugging bus programs (tests assert on the exact
transaction sequence of the paper's listing) and the A8 bus-cost ablation,
which re-prices a recorded trace under a different cost model without
re-running the simulation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.ppa.directions import Direction
from repro.ppa.segments import RowBits

__all__ = ["BusTransaction", "BusTrace", "max_cluster_span_bound"]


def max_cluster_span_bound(ring_len: int, open_count: int) -> int:
    """Pessimistic bound on the longest cluster of a ring.

    A circular bus of ``ring_len`` switches with ``k >= 1`` Open switches is
    cut into ``k`` clusters; in the worst case ``k - 1`` of them are trivial
    (adjacent opens), leaving one cluster of ``ring_len - k + 1`` switches.
    With no opens the whole ring floats as one cluster of span ``ring_len``.

    This is only an *upper bound*: evenly spaced opens give much smaller
    clusters (e.g. opens at positions 0 and 4 of an 8-ring yield two
    clusters of span 4, not ``8 - 2 + 1 = 7``). :meth:`BusTrace.record`
    therefore computes the exact longest cluster per ring, so that
    :meth:`BusTrace.reprice` is correct under distance-proportional cost
    models; this bound is kept (and tested) as the analytical reference.
    """
    if open_count <= 0:
        return ring_len
    return ring_len - open_count + 1


def _max_cluster_span(open_plane: np.ndarray, axis: int) -> int:
    """Exact longest cluster span over all rings of ``open_plane``.

    Each ring (a row when ``axis == 1``, a column when ``axis == 0``) is a
    *circular* bus: with the opens at positions ``idx`` the clusters are the
    circular gaps between consecutive opens, so the longest cluster is the
    largest circular gap. Rings with zero or one open form a single cluster
    spanning the whole ring.

    Fully vectorised (no per-ring Python loop): for every *open* position
    ``c`` the cluster ending there spans ``((c - prev - 1) mod L) + 1``
    switches, where ``prev`` is the nearest open strictly upstream
    (cyclic) — obtained from a cumulative-maximum "head index" grid rolled
    by one. The ``+1``-after-``mod`` form maps the single-open case
    (``prev == c``) to a whole-ring span of ``L``. Accepts batched
    ``(B, n, n)`` plane stacks; rings of all lanes are flattened together.
    """
    rings = open_plane if axis == 1 else open_plane.swapaxes(-1, -2)
    ring_len = rings.shape[-1]
    rings = np.ascontiguousarray(rings).reshape(-1, ring_len)
    counts = rings.sum(axis=1)
    if not counts.all():
        return ring_len  # some ring has no Open: it floats whole
    cols = np.arange(ring_len, dtype=np.int64)
    idx = np.where(rings, cols, -1)
    head = np.maximum.accumulate(idx, axis=1)
    head = np.where(head < 0, head[:, -1:], head)  # cyclic wrap-around
    prev = np.roll(head, 1, axis=1)
    gap = (cols[None, :] - prev - 1) % ring_len + 1
    spans = np.where(rings, gap, 0).max(axis=1)
    return int(spans.max())


@dataclass(frozen=True)
class BusTransaction:
    """One recorded bus operation."""

    kind: str  # "broadcast" | "reduce" | "global_or"
    direction: Direction | None
    open_count: int
    max_span: int  # longest cluster, in switches crossed


class BusTrace:
    """Append-only log of bus transactions."""

    def __init__(self) -> None:
        self._records: list[BusTransaction] = []
        self.enabled = False

    def record(
        self,
        kind: str,
        direction: Direction | None,
        open_plane: np.ndarray | RowBits | None,
    ) -> None:
        if not self.enabled:
            return
        if open_plane is None:
            self._records.append(BusTransaction(kind, direction, 0, 0))
            return
        if isinstance(open_plane, RowBits):
            open_plane = open_plane.unpack()
        open_plane = np.asarray(open_plane, dtype=bool)
        opens = int(open_plane.sum())
        axis = direction.axis if direction is not None else 1
        self._records.append(
            BusTransaction(
                kind, direction, opens, _max_cluster_span(open_plane, axis)
            )
        )

    @property
    def records(self) -> list[BusTransaction]:
        return list(self._records)

    def clear(self) -> None:
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    @contextmanager
    def capture(self):
        """Enable tracing for the duration of a ``with`` block."""
        prev = self.enabled
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = prev

    def reprice(self, unit_cost_of_span) -> int:
        """Total bus cycles under an alternative cost model.

        Parameters
        ----------
        unit_cost_of_span
            Callable mapping a transaction's ``max_span`` to a cycle count,
            e.g. ``lambda s: s`` for distance-proportional buses.
        """
        return sum(unit_cost_of_span(t.max_span) for t in self._records)
