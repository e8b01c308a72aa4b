"""Instruction and bus-cycle accounting.

All experiment tables in EXPERIMENTS.md are expressed in these counters, so
results are deterministic and independent of the host machine. The
convention follows the paper's cost statements:

* every SIMD instruction issued by the controller bumps ``instructions``;
* ``bus_cycles`` weighs bus transactions by the machine's
  :class:`~repro.ppa.topology.BusCostModel` (1 each under the paper's
  unit-cost assumption);
* local ALU work (adds, compares, mask updates) is tracked separately so
  that the *communication* complexity the paper analyses can be isolated.

``snapshot``/``diff``/``merge`` are **round-trip safe**: a snapshot always
carries every counter field, ``diff`` and ``merge`` reject dictionaries
whose key set does not match (a silent ``get(k, 0)`` fallback previously
hid typos and version skew between recorded snapshots), and
:meth:`CycleCounters.from_snapshot` reconstructs a bundle such that
``CycleCounters.from_snapshot(c.snapshot()).snapshot() == c.snapshot()``.

:meth:`CycleCounters.checkpoint` is the measurement primitive the
:mod:`repro.telemetry` span tracer is built on: it reads counters at entry
and exit and exposes the delta, without ever *writing* a counter — which is
what guarantees telemetry adds zero counter overhead.

Two kinds of accounting live here:

* **machine-cost counters** — the priced cost model above. These make up
  the snapshot vocabulary (:meth:`CycleCounters.field_names`) and every
  recorded golden value.
* **host-side metrics** — measurements of the *simulator* itself, not the
  simulated machine: :class:`PlanCacheStats` tracks the shared-plane
  bus-plan LRUs of :mod:`repro.ppa.segments`. They are deliberately
  **excluded** from ``snapshot``/``diff``/``merge`` so that golden
  counter values, profile drift checks and the batched/serial
  counter-parity guarantees stay independent of host cache state.

:class:`LaneCounters` adds the batch dimension: a batched machine
(``PPAMachine(..., batch=B)``) carries one *counter plane* per lane, so a
lane that converges early stops accruing and its delta prices exactly what
a serial run of that lane would have cost (see ``core/batched.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "CycleCounters",
    "CounterCheckpoint",
    "LaneCounters",
    "PlanCacheStats",
]


@dataclass
class PlanCacheStats:
    """Hit/miss tallies of the bus-plan LRU (host-side metric).

    One hit or miss is recorded per *public* bus call
    (:func:`repro.ppa.segments.broadcast_values` /
    :func:`~repro.ppa.segments.segmented_reduce`): a hit means the call's
    shared switch plane was served a resolved plan from cache; a miss
    means the call resolved its plan itself. A per-lane ``(B, n, n)``
    plane stack consults no cache and is resolved on every call, so each
    such call is one miss — ``hits + misses`` always equals the bus calls
    made.

    Not part of the :class:`CycleCounters` snapshot vocabulary — cache
    behaviour depends on process history, so it must never leak into golden
    counter values or profile drift comparisons.
    """

    broadcast_hits: int = 0
    broadcast_misses: int = 0
    reduce_hits: int = 0
    reduce_misses: int = 0

    @property
    def hits(self) -> int:
        return self.broadcast_hits + self.reduce_hits

    @property
    def misses(self) -> int:
        return self.broadcast_misses + self.reduce_misses

    def snapshot(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def diff(self, before: Mapping[str, int]) -> dict[str, int]:
        """Stats accumulated since *before* (a prior :meth:`snapshot`)."""
        return {k: v - int(before.get(k, 0)) for k, v in self.snapshot().items()}

    def merge(self, other: "PlanCacheStats | Mapping[str, int]") -> None:
        if isinstance(other, PlanCacheStats):
            other = other.snapshot()
        for k, v in other.items():
            setattr(self, k, getattr(self, k) + int(v))

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


@dataclass
class CounterCheckpoint:
    """Handle yielded by :meth:`CycleCounters.checkpoint`.

    ``before`` is the snapshot taken at entry; ``delta`` is ``None`` while
    the ``with`` block is still open and holds the counts accumulated
    inside the block once it exits (including on exceptions).
    """

    before: dict[str, int]
    delta: dict[str, int] | None = None


@dataclass
class CycleCounters:
    """Mutable counter bundle attached to a machine instance."""

    instructions: int = 0
    broadcasts: int = 0
    reductions: int = 0
    shifts: int = 0
    alu_ops: int = 0
    global_ors: int = 0
    bus_cycles: int = 0
    bit_cycles: int = 0
    """Bus cycles weighted by operand width: a word transaction on a 1-bit
    bus costs ``word_bits`` bit-cycles, a wired-OR of flags costs 1. This is
    the metric that compares bit-serial machines (PPA, GCN) with
    word-stepped ones (hypercube) on equal footing; see experiment T5."""

    plan_cache: PlanCacheStats = field(
        default_factory=PlanCacheStats,
        repr=False,
        compare=False,
        metadata={"host": True},
    )
    """Host-side bus-plan cache hit/miss tallies for this machine. Excluded
    from the snapshot vocabulary (see module docstring); read it directly
    (``machine.counters.plan_cache.hits``) or via its own ``snapshot()``."""

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """The machine-cost counter vocabulary, in declaration order.

        Host-side metric fields (``metadata={"host": True}``) are excluded:
        they are not part of the priced cost model.
        """
        return tuple(
            f.name for f in fields(cls) if not f.metadata.get("host")
        )

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy of the current counts (always every cost field)."""
        return {name: getattr(self, name) for name in self.field_names()}

    def reset(self) -> None:
        for name in self.field_names():
            setattr(self, name, 0)
        self.plan_cache.reset()

    def _require_full(self, mapping: Mapping[str, int], what: str) -> None:
        names = set(self.field_names())
        unknown = set(mapping) - names
        missing = names - set(mapping)
        if unknown or missing:
            parts = []
            if unknown:
                parts.append(f"unknown keys {sorted(unknown)}")
            if missing:
                parts.append(f"missing keys {sorted(missing)}")
            raise ValueError(
                f"{what} is not a complete counter snapshot: "
                + "; ".join(parts)
            )

    def diff(self, before: Mapping[str, int]) -> dict[str, int]:
        """Counts accumulated since *before* (a prior :meth:`snapshot`).

        *before* must be a complete snapshot — partial dictionaries raise
        :class:`ValueError` instead of being silently zero-filled.
        """
        self._require_full(before, "diff() argument")
        return {k: v - before[k] for k, v in self.snapshot().items()}

    def merge(self, other: "CycleCounters | Mapping[str, int]") -> None:
        """Add *other*'s counts into this bundle (for aggregating runs).

        Accepts another :class:`CycleCounters` or a complete snapshot dict.
        When *other* is a :class:`CycleCounters`, its host-side
        :attr:`plan_cache` stats are merged too.
        """
        if isinstance(other, CycleCounters):
            self.plan_cache.merge(other.plan_cache)
            other = other.snapshot()
        self._require_full(other, "merge() argument")
        for k, v in other.items():
            setattr(self, k, getattr(self, k) + v)

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, int]) -> "CycleCounters":
        """Rebuild a bundle from a complete :meth:`snapshot` dict."""
        c = cls()
        c._require_full(snapshot, "from_snapshot() argument")
        for k, v in snapshot.items():
            setattr(c, k, int(v))
        return c

    @contextmanager
    def checkpoint(self) -> Iterator[CounterCheckpoint]:
        """Measure the counts accumulated inside a ``with`` block.

        >>> c = CycleCounters()
        >>> with c.checkpoint() as cp:
        ...     c.instructions += 3
        >>> cp.delta["instructions"]
        3

        Read-only with respect to the counters themselves: the span tracer
        uses this to attribute cycles to phases without perturbing them.
        """
        cp = CounterCheckpoint(before=self.snapshot())
        try:
            yield cp
        finally:
            cp.delta = self.diff(cp.before)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"CycleCounters({parts})"


class LaneCounters:
    """Per-lane counter planes for a batched machine.

    A batched :class:`~repro.ppa.machine.PPAMachine` executes one SIMD
    instruction across ``B`` independent problem lanes; its scalar
    :class:`CycleCounters` bundle counts that instruction **once** (it is
    one controller issue on the batched machine), while this structure
    prices it **per lane** — each active lane is charged what a serial run
    of that lane would have been charged. Lanes masked inactive (converged)
    accrue nothing, which is what makes a batched run's per-lane deltas
    bit-identical to the corresponding serial runs.

    The lanes a charge lands on are chosen by :meth:`select` (all lanes
    until it narrows them). Charges made under one selection are summed
    as plain integers and applied to the per-lane planes only when the
    selection changes or the planes are read, so a batched run pays one
    masked add per counter per selection instead of one per instruction.
    Every read (:meth:`snapshot`, :meth:`diff`, :meth:`lane`, ...) sees
    exactly what eager accumulation would have produced.

    Vocabulary and exactness rules mirror :class:`CycleCounters`:
    ``snapshot``/``diff``/``merge`` are round-trip safe over the same
    field set, with one int64 vector of length ``lanes`` per field.
    """

    __slots__ = ("lanes", "_data", "_selected", "_pending")

    def __init__(self, lanes: int):
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self.lanes = int(lanes)
        self._data: dict[str, np.ndarray] = {
            name: np.zeros(self.lanes, dtype=np.int64)
            for name in CycleCounters.field_names()
        }
        #: lanes mask-less charges land on (``None``: every lane)
        self._selected: np.ndarray | None = None
        #: charges made under ``_selected`` not yet in ``_data``
        self._pending: dict[str, int] = {}

    # -- accumulation ----------------------------------------------------

    def select(self, mask: np.ndarray | None) -> None:
        """Choose the lanes later :meth:`add` calls without a *mask*
        charge: a boolean vector of length :attr:`lanes`, or ``None`` for
        every lane. Charges pending under the old selection settle first.
        """
        self._settle()
        self._selected = None if mask is None else np.array(mask, dtype=bool)

    @property
    def selected(self) -> np.ndarray:
        """Boolean ``(lanes,)`` copy of the current :meth:`select` mask."""
        if self._selected is None:
            return np.ones(self.lanes, dtype=bool)
        return self._selected.copy()

    def add(
        self,
        increments: Mapping[str, int],
        mask: np.ndarray | None = None,
    ) -> None:
        """Charge *increments* to the selected lanes, or only to *mask*'s.

        *mask* is a boolean vector of length :attr:`lanes`; ``None``
        charges the lanes chosen by :meth:`select` (every lane unless it
        narrowed them). Unknown counter names raise :class:`ValueError`
        (same typo protection as :meth:`CycleCounters.diff`).
        """
        unknown = increments.keys() - self._data.keys()
        if unknown:
            raise ValueError(
                f"unknown counter {sorted(unknown)[0]!r}; vocabulary is "
                f"{CycleCounters.field_names()}"
            )
        if mask is not None:
            self._settle()
            for name, value in increments.items():
                self._data[name][mask] += value
            return
        pending = self._pending
        for name, value in increments.items():
            pending[name] = pending.get(name, 0) + value

    def _settle(self) -> None:
        """Apply the pending charges to the selected lanes' planes."""
        if not self._pending:
            return
        mask = self._selected
        for name, value in self._pending.items():
            if mask is None:
                self._data[name] += value
            else:
                self._data[name][mask] += value
        self._pending.clear()

    # -- snapshots -------------------------------------------------------

    def _require_full(self, mapping: Mapping, what: str) -> None:
        names = set(self._data)
        unknown = set(mapping) - names
        missing = names - set(mapping)
        if unknown or missing:
            parts = []
            if unknown:
                parts.append(f"unknown keys {sorted(unknown)}")
            if missing:
                parts.append(f"missing keys {sorted(missing)}")
            raise ValueError(
                f"{what} is not a complete lane-counter snapshot: "
                + "; ".join(parts)
            )

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of every per-lane counter plane."""
        self._settle()
        return {k: v.copy() for k, v in self._data.items()}

    def diff(self, before: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Per-lane counts accumulated since *before* (a full snapshot)."""
        self._require_full(before, "diff() argument")
        self._settle()
        return {k: v - np.asarray(before[k]) for k, v in self._data.items()}

    def merge(self, other: "LaneCounters | Mapping[str, np.ndarray]") -> None:
        """Add *other*'s per-lane counts into this bundle, lane for lane."""
        if isinstance(other, LaneCounters):
            if other.lanes != self.lanes:
                raise ValueError(
                    f"cannot merge {other.lanes} lanes into {self.lanes}"
                )
            other._settle()
            other = other._data
        self._require_full(other, "merge() argument")
        for k, v in other.items():
            self._data[k] += np.asarray(v, dtype=np.int64)

    def reset(self) -> None:
        self._pending.clear()
        for plane in self._data.values():
            plane[...] = 0

    # -- views -----------------------------------------------------------

    def lane(self, index: int) -> dict[str, int]:
        """One lane's counts as a plain :class:`CycleCounters`-style dict."""
        self._settle()
        return {k: int(v[index]) for k, v in self._data.items()}

    def total(self) -> dict[str, int]:
        """Counts summed over all lanes (= the serial-equivalent total)."""
        self._settle()
        return {k: int(v.sum()) for k, v in self._data.items()}

    @staticmethod
    def lane_of(delta: Mapping[str, np.ndarray], index: int) -> dict[str, int]:
        """Extract one lane from a :meth:`diff`-style per-lane delta dict."""
        return {k: int(np.asarray(v)[index]) for k, v in delta.items()}

    @staticmethod
    def total_of(delta: Mapping[str, np.ndarray]) -> dict[str, int]:
        """Sum a :meth:`diff`-style per-lane delta dict over lanes."""
        return {k: int(np.asarray(v).sum()) for k, v in delta.items()}

    def __len__(self) -> int:
        return self.lanes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LaneCounters(lanes={self.lanes})"
